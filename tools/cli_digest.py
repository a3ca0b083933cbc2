"""Print one sha256 line per command of a fixed `nvgames` CLI session.

Usage: `python tools/cli_digest.py [SRC_DIR]` imports `nvgames` from SRC_DIR
(default: the repository's `src`) and, in a fresh temporary directory, runs
`nvgames.cli.run` in process on three small stress configurations: one of
two blocks (n = 4, blocks (2, 2), 2 atoms per block), one of three singleton
blocks (2 atoms each) and one of a single block (n = 3, 4 atoms). The first
two instances have empty cores, the last a nonempty one, so `solve` takes
both branches. Per configuration it runs, in order:

- `gen` of the instance from the configuration;
- `solve`, `det-solve`, `vmax` and `vmax --coalition 3` on that instance;
- `verify` of the decision that `solve` printed, its multiples rescaled to
  sum to 1;
- `--threads 1 stress` of the configuration.

Every path is relative to the temporary directory, so no output names it.
It prints `SHAPE/COMMAND SHA256` per command, the hash over its exit code,
stdout, stderr and the name and bytes of every file it wrote or changed.
Two source trees whose CLI keeps its text and bytes print the same lines,
so `diff` of two trees' outputs lists the commands that moved.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {
    "two-block": {
        "n": 4, "block_sizes": [2, 2], "atoms_per_block": [2, 2], "num_extremal": 5,
        "num_instances": 2, "seed": 3, "lambda_grid": [0.0, 0.5, 1.0],
    },
    "three-block": {
        "n": 3, "block_sizes": [1, 1, 1], "atoms_per_block": [2, 2, 2], "num_extremal": 5,
        "num_instances": 2, "seed": 5, "lambda_grid": [0.0, 0.5, 1.0],
    },
    "one-block": {
        "n": 3, "block_sizes": [3], "atoms_per_block": [4], "num_extremal": 5,
        "num_instances": 2, "seed": 5, "lambda_grid": [0.0, 0.5, 1.0],
    },
}


def snapshot(folder: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir()) if p.is_file()}


def command_digest(cli, folder: Path, argv: list[str]) -> tuple[str, str]:
    """(sha256, stdout) of one `cli.run(argv)` in `folder`."""
    before = snapshot(folder)
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    h = hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
    for name, data in snapshot(folder).items():
        if before.get(name) != data:
            h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), out.getvalue()


def session(cli, folder: Path, shape: str, config: dict):
    """One `SHAPE/COMMAND SHA256` line per command on one configuration."""
    cfg, inst, decision = f"{shape}.cfg.json", f"{shape}.json", f"{shape}.decision.json"
    (folder / cfg).write_text(json.dumps(config))
    commands = [
        ("gen", ["gen", "--config", cfg, "--out", inst]),
        ("solve", ["solve", inst]),
        ("det-solve", ["det-solve", inst]),
        ("vmax", ["vmax", inst]),
        ("vmax-coalition", ["vmax", inst, "--coalition", "3"]),
        ("verify", ["verify", inst, "--decision", decision]),
        ("stress", ["--threads", "1", "stress", "--config", cfg, "--out", f"{shape}.csv"]),
    ]
    for name, argv in commands:
        digest, out = command_digest(cli, folder, argv)
        if name == "solve":
            fields = dict(line.split(": ", 1) for line in out.splitlines())
            # The printed multiples are rounded to 9 digits; rescaled, they
            # sum to 1 as `verify` requires.
            z = [float(v) for v in fields["z"].strip("()").split(", ")]
            z = [v / sum(z) for v in z]
            (folder / decision).write_text(json.dumps({"y": float(fields["y"]), "z": z}))
        yield f"{shape}/{name} {digest}"


def load(src: Path):
    """The `nvgames` package under `src`, with its CLI module."""
    sys.path.insert(0, str(src))
    import nvgames
    import nvgames.cli

    if Path(nvgames.__file__).resolve().parent != src / "nvgames":
        raise SystemExit(f"nvgames was already imported from {Path(nvgames.__file__).parent}")
    return nvgames


def main(argv=None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    cli = load(Path(argv[0] if argv else ROOT / "src").resolve()).cli
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for shape, config in CONFIGS.items():
                for line in session(cli, Path(tmp), shape, config):
                    print(line)
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    main()
