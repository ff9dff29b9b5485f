import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent

sys.path.insert(0, str(PERFBENCH))
from fkbench import machine  # noqa: E402

machine.pin_threads()
sys.path.insert(0, str(ROOT / "src"))
