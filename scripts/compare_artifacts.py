"""Compare the artifact and config hashes of two sets of `waveinv run` outputs.

Each directory holds one subdirectory per config, as written by
`waveinv run --out DIR/<config name>`.  Every artifact that the two
`manifest.json` files of a config list with different hashes, or that only
one of them lists, is printed, and so is a `config_sha256` (the hash of the
config as it was read) that differs; the exit status is 1 if there is any.
A config that only one side ran is printed but is not a difference.
"""

import argparse
import json
import pathlib
import sys


def artifact_hashes(root):
    """config name -> {artifact: sha256, "config_sha256": sha256} for every manifest
    under ``root``."""
    hashes = {}
    for path in sorted(pathlib.Path(root).glob("*/manifest.json")):
        manifest = json.loads(path.read_text())
        hashes[path.parent.name] = {
            **manifest["artifacts"],
            "config_sha256": manifest.get("config_sha256"),
        }
    return hashes


def differences(old, new):
    """Lines ``config/artifact: old -> new`` for each artifact (or config) whose hash differs."""
    lines = []
    for name in sorted(set(old) & set(new)):
        for artifact in sorted(set(old[name]) | set(new[name])):
            before, after = old[name].get(artifact), new[name].get(artifact)
            if before != after:
                lines.append(f"{name}/{artifact}: {before} -> {after}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="outputs of the reference tree")
    parser.add_argument("new", help="outputs of the tree under test")
    args = parser.parse_args(argv)
    old, new = artifact_hashes(args.old), artifact_hashes(args.new)
    for name in sorted(set(old) ^ set(new)):
        print(f"{name}: only in {args.old if name in old else args.new}")
    shared = set(old) & set(new)
    if not shared:
        print("no config ran on both sides")
        return 1
    lines = differences(old, new)
    same = f"{len(shared)} configs: every artifact hash matches, and every config hash"
    print("\n".join(lines) or same)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
