"""README's library example must run as written.

The fenced python block in README.md trains a model, scores point 7 on its
own and then every point at once, and closes with the comment
``scores[7] ~ score``. A rename or deletion of API the example uses fails
here instead of in a reader's session.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_its_scores_agree():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    code = blocks[0]
    assert code.rstrip().endswith("# scores[7] ~ score")
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    score, scores = namespace["score"], namespace["scores"]
    assert abs(scores[7] - score) <= 1e-8 * abs(score)
