"""The README's Library example runs and prints what its comments state."""
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# each commented line of the example, with the value its comment states
CLAIMS = {
    "polygon.vertices": ((0, 0), (1, 0), (Fraction(3, 2), Fraction(1, 2)), (0, 5)),
    "polygon.tags": ("leftmost-lower", "interior-lower", "rightmost-degenerate", "leftmost-upper"),
    "polygon_area2(polygon) / 2": Fraction(4),
}


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_states_its_results():
    block = _library_block()
    namespace: dict = {}
    exec(block, namespace)
    commented = [line.split("#")[0].strip() for line in block.splitlines() if "#" in line]
    assert commented == list(CLAIMS)
    for expr, want in CLAIMS.items():
        assert eval(expr, namespace) == want, expr
