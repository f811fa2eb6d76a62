#!/usr/bin/env bash
# Print the workspace's library and test line counts, the figures each
# change reports as its net line delta:
#   library: every `crates/*/src` Rust file above its first `#[cfg(test)]`
#            line;
#   tests:   the rest of those files, plus every Rust file under
#            `crates/*/tests` and `tests/`.
# Both leave out `crates/benchmark`, the frozen benchmark harness.
#
# Usage: tools/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# One awk per batch of files, so sum the per-batch counts.
read -r library tests < <(
  find crates/*/src -name '*.rs' -not -path 'crates/benchmark/*' -exec awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    { if (in_tests) tests++; else library++ }
    END { print library + 0, tests + 0 }' {} + |
    awk '{ library += $1; tests += $2 } END { print library, tests }'
)
extra=$(find crates/*/tests tests -name '*.rs' -not -path 'crates/benchmark/*' -exec cat {} + | wc -l)
echo "library: ${library}"
echo "tests:   $((tests + extra))"
