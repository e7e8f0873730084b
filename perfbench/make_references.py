"""Record the reference ``records.csv`` of every shipped config.

Run from the root of a checkout whose records are the reference:

    python3 perfbench/make_references.py

For each ``configs/*.cfg`` it runs the CLI at the config's own seed and at a
second seed, and stores the default-seed rows, their sha256 and exit code,
and whether the records depend on the seed, in ``cli_references.json``.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OTHER_SEED = 20260
# configs whose convexity checks run an equality family (margins exactly 0)
EQUALITY_FAMILY = {"battery.cfg", "convexity-log-family.cfg"}


def run(config: Path, out: Path, seed: int | None) -> tuple[int, bytes]:
    cmd = "certify" if "certify" in config.name else "run"
    args = [sys.executable, "-m", "negdimcd.cli", cmd, str(config.relative_to(ROOT)),
            "--out-dir", str(out)]
    if seed is not None:
        args += ["--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True)
    return proc.returncode, (out / "records.csv").read_bytes()


def main() -> int:
    refs = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for config in sorted((ROOT / "configs").glob("*.cfg")):
            cfg = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                            interpolation=None)
            cfg.read(config)
            seed = int(cfg.get("run", "seed", fallback="0"))
            code, data = run(config, Path(tmp) / config.stem, None)
            _, other = run(config, Path(tmp) / (config.stem + "-other"), OTHER_SEED)
            rows = [line.split(",") for line in data.decode().splitlines()[1:]]
            refs[config.name] = {
                "default_seed": seed,
                "exit_code": code,
                "seed_dependent": data != other,
                "equality_family": config.name in EQUALITY_FAMILY,
                "sha256": hashlib.sha256(data).hexdigest(),
                "rows": rows,
            }
    (HERE / "cli_references.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
