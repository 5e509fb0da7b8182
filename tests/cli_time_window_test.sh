#!/bin/sh
# compare evaluates on the online runtime, which assembles count windows
# only. A time-window query must fail cleanly before training (a usage
# error, not an abort) with a message that names the count-window
# requirement.
#
# usage: cli_time_window_test.sh path/to/dlacep
cli="$1"
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
"$cli" generate --kind stock --events 400 --seed 1 --out "$dir/tr.csv" \
  >/dev/null || exit 1
"$cli" generate --kind stock --events 200 --seed 2 --out "$dir/te.csv" \
  >/dev/null || exit 1
out=$("$cli" compare --query "SEQ(S0 a, S1 b) WITHIN 30 TIME" \
  --train "$dir/tr.csv" --test "$dir/te.csv" --epochs 1 2>&1)
code=$?
if [ "$code" -eq 0 ] || [ "$code" -ge 128 ]; then
  echo "compare on a time-window query exited $code, expected a clean" \
       "non-zero exit: $out"
  exit 1
fi
case "$out" in
  *"count window"*) ;;
  *) echo "message does not name the count-window requirement: $out"
     exit 1 ;;
esac
