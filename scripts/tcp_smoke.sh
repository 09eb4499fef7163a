#!/usr/bin/env bash
# Real-TCP smoke: boot N moara-agent processes on loopback, run one
# grouped standing query from a shell agent for EPOCHS epochs, and
# assert the final epoch reaches completeness 1.0 (every agent counted)
# with zero decode errors on the origin. This exercises the actual
# multi-process deployment path — sockets, connection headers, framing —
# that in-process transport tests cannot.
set -euo pipefail
cd "$(dirname "$0")/.."

N=${N:-64}
EPOCHS=${EPOCHS:-10}
PERIOD=${PERIOD:-300ms}
BASE_PORT=${BASE_PORT:-7100}

work=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$work"' EXIT
go build -o "$work/moara-agent" ./cmd/moara-agent

roster="$work/roster.txt"
for ((i = 0; i < N; i++)); do
  echo "127.0.0.1:$((BASE_PORT + i))" >>"$roster"
done

# Agents 1..N-1 run headless; agent 0 drives the query from its shell.
for ((i = 1; i < N; i++)); do
  "$work/moara-agent" -listen "127.0.0.1:$((BASE_PORT + i))" -peers-file "$roster" \
    -attrs "slice=s$((i % 16)),load=$i" >/dev/null 2>&1 &
done
sleep 1

out="$work/out.txt"
printf 'count(load) group by slice every %s\nstats\nquit\n' "$PERIOD" |
  "$work/moara-agent" -listen "127.0.0.1:$BASE_PORT" -peers-file "$roster" \
    -attrs "slice=s0,load=0" -shell -samples "$EPOCHS" | tee "$out"

# Sum the per-slice counts of the last non-cold epoch: completeness 1.0
# means the grouped stream counted every one of the N agents.
total=$(awk '
  /epoch [0-9]+/ { if (started && !cold) last = sum; started = 1; sum = 0; cold = ($0 ~ /\(cold\)/) }
  /=[0-9]+$/     { split($0, a, "="); sum += a[2] }
  END            { if (started && !cold) last = sum; print last + 0 }
' "$out")

if [ "$total" -ne "$N" ]; then
  echo "FAIL: final standing epoch counted $total of $N agents" >&2
  exit 1
fi
if ! grep -q 'decode errors: 0 ' "$out"; then
  echo "FAIL: origin agent reported decode errors" >&2
  exit 1
fi
echo "PASS: $N agents, grouped standing stream complete ($total/$N), zero decode errors"
