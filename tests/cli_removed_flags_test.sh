#!/bin/sh
# The online runtime has one parallelism setting, --shards. The CLI's
# flag parser ignores unknown flags, so replay and serve must reject the
# removed --num_threads and --batch_timeout_ms explicitly: exit non-zero
# with a message that names --shards.
#
# usage: cli_removed_flags_test.sh path/to/dlacep
cli="$1"
for cmd in replay serve; do
  for flag in num_threads batch_timeout_ms; do
    if out=$("$cli" "$cmd" "--$flag" 2 2>&1); then
      echo "$cmd --$flag: exited 0, expected a usage error"
      exit 1
    fi
    case "$out" in
      *--shards*) ;;
      *) echo "$cmd --$flag: message does not name --shards: $out"; exit 1 ;;
    esac
  done
done
