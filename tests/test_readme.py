import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    library = text[text.index("## Library") :]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    motion = namespace["motion"]
    assert len(motion.parameters) == 256
    assert motion.positions.shape == (256, 3) and motion.rotations.shape == (256, 4)
