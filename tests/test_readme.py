"""README's Library block runs as written, and what its comments state holds."""
import re
from pathlib import Path

from pairswitch import State

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block():
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_runs_and_its_comments_hold():
    block = _library_block()
    for claim in ("# 30 switches, 6 layers", "# (11, 10, 9, ...)", "# every switch Cross",
                  "# {0: (5, 6), ...}", "# True", "# 30 = N(N-2)/4"):
        assert claim in block
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    ps, net, demand, plan = scope["ps"], scope["net"], scope["demand"], scope["plan"]
    assert len(net.lines) == 30 and len(set(net.layers)) == 6
    assert demand.mate[:3] == (11, 10, 9)
    assert set(plan.states.values()) == {State.CROSS}
    assert plan.states[0] is State.CROSS
    assert plan.bsa[0] == (5, 6)
    assert scope["perm"] == plan.permuted
    assert ps.check_pairing(scope["perm"], demand).ok
    assert ps.optimal_switch_count(12) == 30
