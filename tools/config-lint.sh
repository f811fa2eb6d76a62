#!/usr/bin/env bash
# The builder gate: fail the build when a struct literal of one of the
# `#[non_exhaustive]` configuration types appears outside its defining
# module. The compiler already rejects cross-crate literals (E0639); this
# lint closes the same-crate loophole so every construction site goes
# through the `new()` / `with_*` builder surface and stays source-compatible
# when fields are added (see DESIGN.md §9).
#
# Defining modules (the only places allowed to write the literal):
#   KMeansOptions       -> crates/cluster/src/kmeans.rs
#   ModelOptions        -> crates/core/src/model.rs
#   CafcChConfig        -> crates/core/src/algorithms.rs
#   IngestLimits        -> crates/core/src/ingest.rs
#   CheckConfig         -> crates/check/src/runner.rs
#   FuzzConfig          -> crates/fuzz/src/config.rs
#   StoreConfig         -> crates/store/src/config.rs
#   SearchConfig        -> crates/core/src/search.rs
#   ServeOptions        -> crates/serve/src/server.rs
#   LoadgenConfig       -> crates/serve/src/loadgen.rs
#   StreamConfig        -> crates/core/src/stream.rs
#   BenchConfig         -> crates/core/src/bench.rs
#   ShardedCorpusConfig -> crates/corpus/src/shard.rs
#
# Usage: tools/config-lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A home=(
  [KMeansOptions]="crates/cluster/src/kmeans.rs"
  [ModelOptions]="crates/core/src/model.rs"
  [CafcChConfig]="crates/core/src/algorithms.rs"
  [IngestLimits]="crates/core/src/ingest.rs"
  [CheckConfig]="crates/check/src/runner.rs"
  [FuzzConfig]="crates/fuzz/src/config.rs"
  [StoreConfig]="crates/store/src/config.rs"
  [SearchConfig]="crates/core/src/search.rs"
  [ServeOptions]="crates/serve/src/server.rs"
  [LoadgenConfig]="crates/serve/src/loadgen.rs"
  [StreamConfig]="crates/core/src/stream.rs"
  [BenchConfig]="crates/core/src/bench.rs"
  [ShardedCorpusConfig]="crates/corpus/src/shard.rs"
)

status=0
for ty in "${!home[@]}"; do
  # A literal is `Type {` NOT preceded by `struct`/`fn ... ->` context:
  # skip declarations (`struct Type {`), impl blocks (`impl Type {`), and
  # return-type positions (`-> Type {`). Comment lines are exempt.
  hits=$(grep -rn --include='*.rs' -E "${ty}[[:space:]]*\{" crates tests examples 2>/dev/null |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
    grep -vE "(struct|impl|enum|trait)[[:space:]]+${ty}|->[[:space:]]*&?${ty}[[:space:]]*\{" |
    grep -v "^${home[$ty]}:" || true)
  if [[ -n "$hits" ]]; then
    echo "config-lint: ${ty} struct literal outside ${home[$ty]}:" >&2
    echo "$hits" | sed 's/^/    /' >&2
    status=1
  fi
done

if [[ "$status" -ne 0 ]]; then
  echo "config-lint: FAILED — construct configuration types through their" >&2
  echo "builder surface (Type::new()/Type::default() + with_* setters)." >&2
else
  echo "config-lint: OK"
fi
exit "$status"
