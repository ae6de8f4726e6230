#!/bin/sh
# The A/A gate: the suite twice on the same tree, the second time with
# the workloads in reverse order, then -compare -strict on the two
# reports. It fails if any workload x end-to-end metric differs by more
# than its bound, or has a spread wider than its bound in either
# report. Reports and traces land in bench/out/; copy the two reports
# to bench/baseline/ to record a new baseline.
#
# To judge a change against its parent, run
#   go run -C bench . -suite out/new.json
# in each checkout and then
#   go run -C bench . -compare old.json new.json
set -eu
cd "$(dirname "$0")"
mkdir -p out
go build -o out/bench .
./out/bench -suite out/aa-1.json "$@" > out/aa-1.txt
./out/bench -suite out/aa-2.json -reverse "$@" > out/aa-2.txt
status=0
./out/bench -compare -strict out/aa-1.json out/aa-2.json > out/aa-compare.txt || status=$?
cat out/aa-compare.txt
exit $status
