"""``python benchmarks/nsrbench`` entry point."""

import sys
from pathlib import Path

# Run as a directory, there is no package context yet: make the
# directory's parent importable so the modules load as ``nsrbench.*``
# (the fleet workload names its shard builder by that import path).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from nsrbench.cli import main  # noqa: E402

sys.exit(main())
