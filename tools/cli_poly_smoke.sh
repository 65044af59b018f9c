#!/bin/sh
# aeromesh --poly smoke: the CLI's .poly front door on six small files.
#
#   from0.poly  unit square, vertices numbered 0-3   -> exit 0
#   from1.poly  the same square numbered 1-4         -> exit 0, same mesh
#   past.poly   a segment endpoint past the vertices -> exit 2, "error:" line
#   dim3.poly   a header with dimension 3            -> exit 2, "error:" line
#   diag.poly   the square plus its diagonal         -> exit 2, "error:" line
#   open.poly   an open path of three segments       -> exit 2, "error:" line
#
# Triangle's format allows either numbering base, so both squares must print
# the same `mesh:` line. A bad file must be a usage error, never a signal,
# and a segment off a simple closed loop is never silently dropped.
#
# Usage: tools/cli_poly_smoke.sh [build-dir]   (default: build)
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
aeromesh="$build_dir/src/core/aeromesh"
[ -x "$aeromesh" ] || { echo "poly smoke: $aeromesh not built" >&2; exit 1; }

work=$(mktemp -d "${TMPDIR:-/tmp}/aeromesh-poly-smoke.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

printf '4 2 0 0\n0 0 0\n1 1 0\n2 1 1\n3 0 1\n4 0\n0 0 1\n1 1 2\n2 2 3\n3 3 0\n0\n' \
    >"$work/from0.poly"
printf '4 2 0 0\n1 0 0\n2 1 0\n3 1 1\n4 0 1\n4 0\n1 1 2\n2 2 3\n3 3 4\n4 4 1\n0\n' \
    >"$work/from1.poly"
printf '4 2 0 0\n0 0 0\n1 1 0\n2 1 1\n3 0 1\n4 0\n0 0 1\n1 1 2\n2 2 3\n3 3 4\n0\n' \
    >"$work/past.poly"
printf '4 3 0 0\n0 0 0 0\n1 1 0 0\n2 1 1 0\n3 0 1 0\n4 0\n0 0 1\n1 1 2\n2 2 3\n3 3 0\n0\n' \
    >"$work/dim3.poly"
printf '4 2 0 0\n0 0 0\n1 1 0\n2 1 1\n3 0 1\n5 0\n0 0 1\n1 1 2\n2 2 3\n3 3 0\n4 0 2\n0\n' \
    >"$work/diag.poly"
printf '4 2 0 0\n0 0 0\n1 1 0\n2 1 1\n3 0 1\n3 0\n0 0 1\n1 1 2\n2 2 3\n0\n' \
    >"$work/open.poly"

# Run aeromesh on one file; sets $rc and leaves stdout/stderr in $work.
run() {
  rc=0
  "$aeromesh" --poly "$work/$1.poly" --farfield 5 --max-layers 5 \
      --first-height 1e-3 --output "$work/$1" \
      >"$work/$1.out" 2>"$work/$1.err" || rc=$?
}

fail() {
  echo "poly smoke: $1" >&2
  cat "$work/$2.out" "$work/$2.err" >&2
  exit 1
}

for good in from0 from1; do
  run "$good"
  [ "$rc" -eq 0 ] || fail "$good.poly exited $rc, expected 0" "$good"
done
mesh0=$(grep '^mesh:' "$work/from0.out") || fail "no mesh: line" from0
mesh1=$(grep '^mesh:' "$work/from1.out") || fail "no mesh: line" from1
[ "$mesh0" = "$mesh1" ] ||
  fail "1-based square meshed differently: '$mesh1' vs '$mesh0'" from1

for bad in past dim3 diag open; do
  run "$bad"
  [ "$rc" -eq 2 ] || fail "$bad.poly exited $rc, expected 2" "$bad"
  grep -q '^error:' "$work/$bad.err" || fail "$bad.poly printed no error:" "$bad"
done

echo "poly smoke: ok ($mesh0)"
