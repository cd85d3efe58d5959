"""README's library-use code runs as written."""

import re
from pathlib import Path

from tripletclean.core import Part

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "->" in capsys.readouterr().out
    dataset = namespace["dataset"]
    assert isinstance(dataset.partition, tuple)
    assert len(dataset.partition) == len(dataset.vocab.names)
    assert all(isinstance(part, Part) for part in dataset.partition)
    assert namespace["tail"] == list(dataset.vocab.names)
    assert namespace["no_tail_mining"].thresholds[Part.TAIL] is None
