import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the package under test comes from this checkout's src/, as in run.py
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
