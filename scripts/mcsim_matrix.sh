#!/usr/bin/env bash
# Print the counters of small mcsim runs: every protocol on every
# workload with the coherence monitors on, plus one faulted TokenCMP-dst1
# run. Simulated behaviour is a pure function of the run, so two builds
# that simulate alike print byte-identical output:
#
#   go build -o old/ ./cmd/mcsim    # at the base commit
#   go build -o new/ ./cmd/mcsim    # at the change
#   diff <(scripts/mcsim_matrix.sh old/mcsim) <(scripts/mcsim_matrix.sh new/mcsim)
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 MCSIM_BINARY" >&2
  exit 2
fi
BIN=$1

SIZE=(-cmps 2 -procs 2 -banks 2 -locks 8 -acquires 16 -barriers 8 -txns 8)

run() {
  echo "== $*"
  "$BIN" -counters -check "${SIZE[@]}" "$@"
}

for proto in $("$BIN" -list | sed -n '/^Protocols:/,/^$/{/^  /s/^  //p}'); do
  for workload in locking barrier OLTP Apache SPECjbb; do
    run -proto "$proto" -workload "$workload"
  done
done
run -proto TokenCMP-dst1 -workload locking -drop 0.05 -dup 0.05 -reorder 0.05 -jitter 5 -faultseed 3
