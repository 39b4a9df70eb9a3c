import sys
from pathlib import Path

# The benchmark's modules live one directory up, outside any package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
