import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_BENCH.parent / "src"), str(_BENCH)]
