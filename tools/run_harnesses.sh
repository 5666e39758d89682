#!/usr/bin/env bash
# Runs paper harnesses and examples from a build directory and checks them.
#
#   tools/run_harnesses.sh BUILD_DIR HARNESS...
#
# Each harness's stdout is echoed and saved as BUILD_DIR/harness-stdout/<name>.txt,
# so two builds' outputs can be compared with `diff -r`. Every harness runs;
# the script then exits 1 if any of them printed MISMATCH or exited non-zero.
set -u

if [ $# -lt 2 ]; then
  echo "usage: $0 BUILD_DIR HARNESS..." >&2
  exit 2
fi
build=$1
shift
out_dir="$build/harness-stdout"
mkdir -p "$out_dir"

status=0
for h in "$@"; do
  log="$out_dir/$h.txt"
  "$build/$h" | tee "$log"
  code=${PIPESTATUS[0]}
  if [ "$code" -ne 0 ]; then
    echo "::error::$h exited $code"
    status=1
  fi
  if grep -q MISMATCH "$log"; then
    echo "::error::$h printed MISMATCH"
    status=1
  fi
done
exit $status
