#!/usr/bin/env python3
"""Env-knob lint: every ONEPORT_* getenv goes through the central registry.

Four checks, all driven by the catalog table in src/util/env_knobs.cpp
(the single getenv call site the first check enforces):

  1. getenv confinement -- no file under src/, tests/, bench/ or
     examples/ may call getenv except src/util/env_knobs.cpp.  New knobs
     are added to the registry's Knob enum + catalog, never read ad hoc.
  2. catalog <-> docs/KNOBS.md -- the doc must have one table row per
     registered knob (name, default and consumer all present on the
     row), and must not document knobs the registry doesn't have.
  3. catalog <-> enum -- env_knobs.hpp's Knob enum and the .cpp catalog
     must be the same size (a new enum entry without a catalog row would
     otherwise read a neighbours' metadata).
  4. CI workflows -- every `ONEPORT_X=` assignment in a step and every
     `ONEPORT_X:` env key in .github/workflows/*.yml must name a catalog
     knob.  Once a knob is retired, a stale step such as
     `ONEPORT_OLD=1 ./tests/some_test` still passes while testing
     nothing; this check turns it into a lint failure.  CMake options
     (`-DONEPORT_*`) are build-time, not runtime knobs, and are exempt.

Usage:
  tools/lint/check_env_knobs.py              # lint the repo
  tools/lint/check_env_knobs.py --self-test  # prove the lint can fail
"""

from __future__ import annotations

import argparse
import pathlib
import re
import shutil
import sys
import tempfile

GETENV_RE = re.compile(r"\bgetenv\s*\(")
CATALOG_ROW_RE = re.compile(
    r'^\s*\{"(ONEPORT_[A-Z_]+)",\s*"([^"]*)",\s*"([^"]+)",\s*"([^"]*)"\},'
)
ENUM_ENTRY_RE = re.compile(r"^\s*k[A-Z]\w*\s*[,=]")
SCAN_DIRS = ("src", "tests", "bench", "examples")
SUFFIXES = {".hpp", ".h", ".cpp", ".cc"}
REGISTRY_CPP = "src/util/env_knobs.cpp"
REGISTRY_HPP = "src/util/env_knobs.hpp"
KNOBS_DOC = "docs/KNOBS.md"
WORKFLOWS_DIR = ".github/workflows"
# An assignment `ONEPORT_X=...` not glued to a preceding word character,
# so `-DONEPORT_X=...` (a CMake option) never matches.
WORKFLOW_ASSIGN_RE = re.compile(r"(?<![A-Za-z0-9_])(ONEPORT_[A-Z0-9_]+)=")
WORKFLOW_ENV_KEY_RE = re.compile(r"^\s*(ONEPORT_[A-Z0-9_]+)\s*:")


def parse_catalog(repo: pathlib.Path) -> dict[str, tuple[str, str]]:
    """Knob name -> (default, consumer) parsed from the rigid table."""
    catalog: dict[str, tuple[str, str]] = {}
    for line in (repo / REGISTRY_CPP).read_text().splitlines():
        match = CATALOG_ROW_RE.match(line)
        if match:
            catalog[match.group(1)] = (match.group(2), match.group(3))
    return catalog


def count_enum_entries(repo: pathlib.Path) -> int:
    text = (repo / REGISTRY_HPP).read_text()
    enum_match = re.search(r"enum class Knob[^{]*\{(.*?)\};", text, re.S)
    if not enum_match:
        raise SystemExit(f"{REGISTRY_HPP}: Knob enum not found")
    entries = [
        line
        for line in enum_match.group(1).splitlines()
        if ENUM_ENTRY_RE.match(line)
    ]
    # kCount is the sentinel, not a knob.
    return sum(1 for e in entries if "kCount" not in e)


def lint_tree(repo: pathlib.Path) -> list[str]:
    errors: list[str] = []

    # 1. getenv confinement.
    for dirname in SCAN_DIRS:
        base = repo / dirname
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SUFFIXES:
                continue
            rel = path.relative_to(repo)
            if str(rel) == REGISTRY_CPP:
                continue
            for lineno, line in enumerate(
                path.read_text(errors="replace").splitlines(), start=1
            ):
                if GETENV_RE.search(line):
                    errors.append(
                        f"{rel}:{lineno}: getenv outside the registry -- "
                        f"route this knob through env::Knob "
                        f"({REGISTRY_CPP} is the only allowed call site)"
                    )

    # 2/3. catalog sanity + docs cross-check.
    catalog = parse_catalog(repo)
    if not catalog:
        errors.append(f"{REGISTRY_CPP}: could not parse any catalog row "
                      f"(table format drifted?)")
        return errors
    enum_count = count_enum_entries(repo)
    if enum_count != len(catalog):
        errors.append(
            f"{REGISTRY_HPP}: Knob enum has {enum_count} entries but the "
            f"catalog has {len(catalog)} rows -- keep them in sync"
        )

    doc_path = repo / KNOBS_DOC
    if not doc_path.is_file():
        errors.append(f"{KNOBS_DOC}: missing (documents the knob catalog)")
        return errors
    doc_lines = doc_path.read_text().splitlines()
    documented: set[str] = set()
    for name in re.findall(r"`(ONEPORT_[A-Z_]+)`", doc_path.read_text()):
        documented.add(name)
    for name, (default, consumer) in sorted(catalog.items()):
        rows = [l for l in doc_lines if f"`{name}`" in l and l.startswith("|")]
        if not rows:
            errors.append(f"{KNOBS_DOC}: no table row for {name}")
            continue
        if not any(default in row and consumer in row for row in rows):
            errors.append(
                f"{KNOBS_DOC}: row for {name} must state default "
                f"'{default}' and consumer '{consumer}' (regenerate from "
                f"the catalog in {REGISTRY_CPP})"
            )
    ghost = {
        name
        for name in documented
        if name not in catalog
        and any(f"`{name}`" in l and l.startswith("|") for l in doc_lines)
    }
    for name in sorted(ghost):
        errors.append(
            f"{KNOBS_DOC}: documents {name} which is not in the registry "
            f"catalog ({REGISTRY_CPP})"
        )

    # 4. CI workflows only set registered knobs.
    workflows = repo / WORKFLOWS_DIR
    if workflows.is_dir():
        for path in sorted(workflows.glob("*.yml")):
            rel = path.relative_to(repo)
            for lineno, line in enumerate(
                path.read_text(errors="replace").splitlines(), start=1
            ):
                names = WORKFLOW_ASSIGN_RE.findall(line)
                key = WORKFLOW_ENV_KEY_RE.match(line)
                if key:
                    names.append(key.group(1))
                for name in names:
                    if name not in catalog:
                        errors.append(
                            f"{rel}:{lineno}: sets {name}, which is not a "
                            f"registered knob -- the step tests nothing "
                            f"(catalog: {REGISTRY_CPP})"
                        )
    return errors


def self_test(repo: pathlib.Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        fake = pathlib.Path(tmp)
        for rel in (REGISTRY_CPP, REGISTRY_HPP, KNOBS_DOC):
            (fake / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(repo / rel, fake / rel)
        if lint_tree(fake):
            print("self-test FAILED: clean tree reported errors")
            return 1
        # Violation A: a stray getenv outside the registry.
        (fake / "src/core").mkdir(parents=True)
        (fake / "src/core/sneaky.cpp").write_text(
            '#include <cstdlib>\n'
            'bool on() { return std::getenv("ONEPORT_SNEAKY") != nullptr; }\n'
        )
        errors = lint_tree(fake)
        if not any("sneaky.cpp" in e for e in errors):
            print("self-test FAILED: stray getenv not caught")
            return 1
        (fake / "src/core/sneaky.cpp").unlink()
        # Violation B: a registered knob vanishes from the doc.
        doc = fake / KNOBS_DOC
        doc.write_text(
            "\n".join(
                l
                for l in doc.read_text().splitlines()
                if "ONEPORT_PROFILE" not in l
            )
        )
        errors = lint_tree(fake)
        if not any("ONEPORT_PROFILE" in e for e in errors):
            print("self-test FAILED: undocumented knob not caught")
            return 1
        shutil.copy(repo / KNOBS_DOC, doc)
        # Violation C: CI steps setting unregistered knobs, next to a
        # registered assignment, a registered env key and a CMake option
        # that must all pass.
        workflow = fake / WORKFLOWS_DIR / "ci.yml"
        workflow.parent.mkdir(parents=True)
        workflow.write_text(
            "jobs:\n"
            "  sweep:\n"
            "    steps:\n"
            "      - run: cmake -B build -DONEPORT_WERROR=ON\n"
            "      - env:\n"
            "          ONEPORT_SWEEP_SEEDS: 24\n"
            "          ONEPORT_GHOST: 1\n"
            "        run: |\n"
            "          ONEPORT_PROFILE=1 ./tests/property_sweep_test\n"
            "          ONEPORT_RETIRED=old ./tests/property_sweep_test\n"
        )
        errors = lint_tree(fake)
        flagged = sorted(
            name for name in ("ONEPORT_GHOST", "ONEPORT_RETIRED",
                              "ONEPORT_WERROR", "ONEPORT_SWEEP_SEEDS",
                              "ONEPORT_PROFILE")
            if any(f"sets {name}," in e for e in errors)
        )
        if flagged != ["ONEPORT_GHOST", "ONEPORT_RETIRED"]:
            print(f"self-test FAILED: workflow check flagged {flagged}, "
                  f"expected exactly ONEPORT_GHOST and ONEPORT_RETIRED")
            return 1
    print("check_env_knobs self-test OK (all three injected violations "
          "caught)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[2])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test(args.repo)
    errors = lint_tree(args.repo)
    for error in errors:
        print(error)
    if errors:
        print(f"check_env_knobs: {len(errors)} violation(s)")
        return 1
    print(f"check_env_knobs: OK ({len(parse_catalog(args.repo))} knobs, "
          f"getenv confined to {REGISTRY_CPP})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
