#!/usr/bin/env bash
# Prints where the interpreter's hot symbols sit in a binary: size in
# bytes, start address, and start address mod 64 (the cache-line offset).
# A JVM workload that moves with no JVM change usually moved with one of
# these; compare the output of two builds before reading a timing.
#
#   scripts/jvm_layout.sh .bench_build/perfbench/perfbench
#
# To report another function, add it to Symbols below. A symbol the
# binary does not define, inlined everywhere or removed, prints as
# absent. Informational: the exit code is nonzero only when the binary
# cannot be read.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <binary>" >&2
  exit 2
fi
Binary=$1

Symbols=(
  'JvmThread::step'
  'JvmThread::invokeMethod'
  'JvmThread::pushFrame'
  'JvmThread::releaseFrame'
  'divRemSigned'
  'mulLongDigits'
)

Table=$(nm -C --print-size --defined-only "$Binary")
printf '%-28s %8s %18s %6s\n' symbol size address mod64
for Sym in "${Symbols[@]}"; do
  # The function itself: "<addr> <size> T ...::Sym(<args>)", not a
  # [clone .cold] part, a guard variable or a local static.
  Line=$(awk -v Sym="$Sym" '
    $3 ~ /^[Tt]$/ {
      Name = $0
      sub(/^[^ ]+ [^ ]+ [^ ]+ /, "", Name)
      if (index(Name, Sym "(") && Name !~ /\[clone/ && Name !~ /::\{lambda/)
        { print $1, $2; exit }
    }' <<<"$Table")
  if [[ -z $Line ]]; then
    printf '%-28s %8s\n' "$Sym" absent
    continue
  fi
  read -r Addr Size <<<"$Line"
  printf '%-28s %8d %18s %6d\n' "$Sym" "$((16#$Size))" "0x$Addr" \
    "$((16#$Addr % 64))"
done
