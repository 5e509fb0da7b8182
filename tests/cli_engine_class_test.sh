#!/bin/sh
# The tree and lazy engines cover SEQ/CONJ/DISJ of primitives only. A
# multi-query run whose --engine cannot run a registered pattern must
# exit 1 at registration with the engine's message — not abort when
# extraction builds the engine at end of stream.
#
# usage: cli_engine_class_test.sh path/to/dlacep
cli="$1"
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
"$cli" generate --kind stock --events 400 --seed 1 --out "$dir/d.csv" \
  >/dev/null || exit 1
queries="SEQ(S0 a, NEG(S1 b), S2 c) WITHIN 20 EVENTS"

expect_rejected() {
  what="$1"
  shift
  out=$("$cli" "$@" 2>&1)
  code=$?
  if [ "$code" -ne 1 ]; then
    echo "$what exited $code, expected 1: $out"
    exit 1
  fi
  case "$out" in
    *"engine supports SEQ/CONJ/DISJ of primitives only"*) ;;
    *) echo "$what: message does not name the engine's class: $out"
       exit 1 ;;
  esac
}

expect_rejected "serve --queries --engine tree" \
  serve --queries "$queries" --engine tree --events 400
expect_rejected "serve --queries --engine lazy" \
  serve --queries "$queries" --engine lazy --events 400
expect_rejected "replay --queries --engine tree" \
  replay --data "$dir/d.csv" --queries "$queries" --engine tree
