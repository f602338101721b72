#!/usr/bin/env python3
"""Docs-drift gate for the peak CLI.

docs/CLI.md claims to document every flag the binary advertises. This
script keeps that claim true by construction: it runs the binary's
--help, extracts the flag set and the subcommand list, extracts the
same from the markdown, and fails on any difference in either
direction —

  * a flag in --help but not in the docs: the flag was added without
    documenting it;
  * a flag in the docs but not in --help: the docs reference a flag
    that was renamed or removed (stale docs);
  * a subcommand in --help without a `peak <name>` heading in the docs;
  * a subcommand the docs list (a `peak <a|b|…>` usage line or a
    `peak <name>` heading) that --help does not: the subcommand was
    removed (stale docs).

Other docs (README.md, docs/INTERNALS.md, docs/ARCHITECTURE.md) are
not required to document everything, but they must never reference a
flag the binary does not have: each `--mentions FILE` runs the one-way
stale check on FILE, skipping flags of the other tools those docs
invoke (cmake, ctest, the python checkers — see ALLOWED_MENTIONS) and
markdown link targets (section anchors contain `--`).

Run it in CI after the build (wired as the check_docs_cli ctest), or
standalone:

    tools/check_docs.py --binary build/tools/peak --doc docs/CLI.md \\
        --mentions README.md --mentions docs/INTERNALS.md
    tools/check_docs.py --self-test

Exit status: 0 when the sets match (or the self-test passes), 1
otherwise. Stdlib only — no third-party dependencies.
"""

import re
import subprocess
import sys

FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
SUBCOMMANDS_RE = re.compile(r"peak <([a-z|]+)>")
HEADING_RE = re.compile(r"^#+ .*?`?peak ([a-z]+)", re.MULTILINE)

#: Tokens the docs may mention that the usage text never lists:
#: "--help" is the conventional way to ask for usage, not a flag of its
#: own (any unknown option prints usage).
ALLOWED_DOC_ONLY = {"--help"}

#: Flags of the *other* tools the prose docs invoke — cmake/ctest,
#: GoogleTest, and the python checkers. Ignored by the --mentions
#: check; never ignored in docs/CLI.md, which is peak-flags-only.
ALLOWED_MENTIONS = ALLOWED_DOC_ONLY | {
    "--build", "--preset", "--test-dir", "--output-on-failure",  # cmake/ctest
    "--gtest_filter",
    "--self-test", "--compare", "--compare-metrics",  # check_bench_json.py
    "--max-regress-pct", "--max-metric-drift-pct",
    "--binary", "--doc", "--mentions",  # this script
}

#: Markdown link targets — `(#parallelism--transports-tune)` — contain
#: `--` runs that are section anchors, not flags.
LINK_TARGET_RE = re.compile(r"\]\([^)]*\)")


def flags_of(text):
    return set(FLAG_RE.findall(text))


def mention_errors(doc_text, help_flags, label):
    """One-way staleness check: every peak-looking flag must exist."""
    mentioned = flags_of(LINK_TARGET_RE.sub("]", doc_text))
    errors = []
    for flag in sorted(mentioned - help_flags - ALLOWED_MENTIONS):
        errors.append(f"{label}: flag {flag} is mentioned but not in "
                      "--help (stale docs)")
    return errors


def subcommands_of(help_text):
    match = SUBCOMMANDS_RE.search(help_text)
    return set(match.group(1).split("|")) if match else set()


def documented_subcommands(doc_text):
    """Subcommands the docs list: usage lines and `peak X` headings."""
    listed = set(HEADING_RE.findall(doc_text))
    for match in SUBCOMMANDS_RE.finditer(doc_text):
        listed |= set(match.group(1).split("|"))
    return listed


def diff_docs(help_text, doc_text):
    """Return a list of error strings; empty means the docs are in sync."""
    errors = []
    help_flags = flags_of(help_text)
    doc_flags = flags_of(doc_text) - ALLOWED_DOC_ONLY
    if not help_flags:
        errors.append("no flags found in --help output (wrong binary?)")
    for flag in sorted(help_flags - doc_flags):
        errors.append(f"flag {flag} is in --help but not documented")
    for flag in sorted(doc_flags - help_flags):
        errors.append(f"flag {flag} is documented but not in --help "
                      "(stale docs)")
    subcommands = subcommands_of(help_text)
    if not subcommands:
        errors.append("no subcommand list found in --help output")
    for sub in sorted(subcommands):
        if f"peak {sub}" not in doc_text:
            errors.append(f"subcommand '{sub}' has no 'peak {sub}' "
                          "section in the docs")
    for sub in sorted(documented_subcommands(doc_text) - subcommands):
        errors.append(f"subcommand '{sub}' is documented but not in "
                      "--help (stale docs)")
    return errors


def help_text_of(binary):
    # The CLI prints usage (to stderr) and exits 2 for --help, like any
    # unknown option; both streams and any exit status are acceptable.
    proc = subprocess.run([binary, "--help"], capture_output=True,
                          text=True, timeout=60)
    return proc.stdout + proc.stderr


# --- self-test fixtures -----------------------------------------------------

GOOD_HELP = """usage: peak <list|tune|worker> [options]
  --benchmark NAME   (tune)
  --machine sparc2|p4
  --search-threads N  (tune) parallel batched probing
  peak worker (--connect HOST:PORT | --listen PORT) [--name NAME]
"""

GOOD_DOC = """# The peak CLI
Ask for usage with `--help`: `peak <list|tune|worker> [options]`.
### `peak list`
### `peak tune`
`--benchmark NAME` and `--machine sparc2|p4` select the scenario;
`--search-threads N` fans probes out.
### `peak worker`
`--connect HOST:PORT` dials, `--listen PORT` accepts, `--name` labels.
"""


def self_test():
    failures = []
    cases = [0]

    def expect(help_text, doc_text, ok_expected, label):
        cases[0] += 1
        errors = diff_docs(help_text, doc_text)
        if bool(not errors) != ok_expected:
            failures.append(f"{label}: {errors}")

    expect(GOOD_HELP, GOOD_DOC, True, "matching docs rejected")
    expect(GOOD_HELP + "  --new-flag N  (tune) undocumented\n", GOOD_DOC,
           False, "undocumented flag accepted")
    expect(GOOD_HELP, GOOD_DOC + "`--removed-flag` does things.\n",
           False, "stale documented flag accepted")
    expect(GOOD_HELP,
           GOOD_DOC.replace("### `peak worker`",
                            "### Worker agents\nRun `peak worker`:"),
           True, "subcommand mention outside a heading rejected")
    expect(GOOD_HELP,
           GOOD_DOC.replace("peak worker", "worker mode"),
           False, "missing subcommand section accepted")
    expect(GOOD_HELP, GOOD_DOC + "### `peak app`\nWhole programs.\n",
           False, "section of a removed subcommand accepted")
    expect(GOOD_HELP,
           GOOD_DOC.replace("<list|tune|worker>", "<list|tune|app|worker>"),
           False, "usage line with a removed subcommand accepted")
    expect("no usage line here\n", "# docs\n", False,
           "help with no flags/subcommands accepted")
    # --help in the docs is the conventional invocation, never a flag
    # the usage text lists; it must not count as stale.
    expect(GOOD_HELP, GOOD_DOC + "See `--help`.\n", True,
           "--help mention flagged as stale")

    help_flags = flags_of(GOOD_HELP)

    def expect_mentions(doc_text, ok_expected, label):
        cases[0] += 1
        errors = mention_errors(doc_text, help_flags, "readme")
        if bool(not errors) != ok_expected:
            failures.append(f"{label}: {errors}")

    expect_mentions("Tune with `--benchmark` and `--search-threads`.\n",
                    True, "valid mentions rejected")
    expect_mentions("Pass `--no-such-flag` to the run.\n",
                    False, "stale mention accepted")
    expect_mentions("Run `cmake --preset asan` and `ctest --test-dir b`.\n",
                    True, "other tools' flags flagged as stale")
    expect_mentions("See [§8](F.md#search--the-rating-cache-core) too.\n",
                    True, "anchor inside a link target read as a flag")

    if failures:
        for failure in failures:
            print(f"self-test: FAIL ({failure})")
        return False
    print(f"self-test: OK ({cases[0]} cases)")
    return True


def main(argv):
    if "--self-test" in argv:
        return 0 if self_test() else 1
    binary = None
    doc = None
    mentions = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("--binary", "--doc", "--mentions"):
            if i + 1 >= len(argv):
                print(f"{arg} requires an argument")
                return 1
            if arg == "--binary":
                binary = argv[i + 1]
            elif arg == "--doc":
                doc = argv[i + 1]
            else:
                mentions.append(argv[i + 1])
            i += 2
        else:
            print(f"unknown option {arg!r}")
            return 1
    if binary is None or doc is None:
        print(__doc__.strip())
        return 1
    try:
        help_text = help_text_of(binary)
    except OSError as exc:
        print(f"{binary}: FAIL ({exc})")
        return 1
    try:
        with open(doc, "r", encoding="utf-8") as handle:
            doc_text = handle.read()
    except OSError as exc:
        print(f"{doc}: FAIL ({exc})")
        return 1
    errors = [f"{doc}: {e}" for e in diff_docs(help_text, doc_text)]
    help_flags = flags_of(help_text)
    for path in mentions:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                errors.extend(mention_errors(handle.read(), help_flags,
                                             path))
        except OSError as exc:
            errors.append(f"{path}: {exc}")
    if errors:
        for error in errors:
            print(f"FAIL ({error})")
        return 1
    checked = ", ".join([doc] + mentions)
    print(f"OK ({checked} in sync with {binary} --help)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
