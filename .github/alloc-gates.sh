#!/usr/bin/env bash
# Allocation gates of the I/O path's layer benchmarks, one row each: the
# package, the -bench regex, the -benchtime, how many result lines the run
# must print, and the allocs/op every one of them must report. A row fails
# when its run fails, prints another number of results, or a result reports
# other allocs/op (or none). Every row runs; the script exits 1 if any failed.
#
# Run from the repository root: bash .github/alloc-gates.sh
set -uo pipefail

status=0
while read -r pkg regex benchtime seen allocs; do
  case "$pkg" in '' | '#'*) continue ;; esac
  if ! out=$(go test -run='^$' -bench="$regex" -benchtime="$benchtime" "$pkg" 2>&1); then
    echo "$out"
    echo "FAIL: $pkg $regex did not run"
    status=1
    continue
  fi
  echo "$out" | awk -v row="$pkg $regex" -v seen="$seen" -v want="$allocs" '
    /^Benchmark/ {
      print; n++
      got = "none"
      for (i = 2; i <= NF; i++) if ($i == "allocs/op") got = $(i - 1)
      if (got != want) { print "FAIL: " $1 " reports " got " allocs/op, want " want; bad = 1 }
    }
    END {
      if (n != seen) { print "FAIL: " row " printed " n " results, want " seen; bad = 1 }
      exit bad
    }' || status=1
done <<'EOF'
# package            benchmark regex                                                            benchtime  seen  allocs/op
# disabled telemetry is one nil check
./internal/obs       ^BenchmarkRecordDisabled$                                                  200000x    1     0
# steady-state issue path: seqwrite, randread, burstread, randwrite, gcheavy at QD 1 and 16
./internal/host      ^BenchmarkEmulatorThroughput$                                              5000x      10    0
# L2P cache lookup (zone, chunk, page), miss-insert-evict, covered-entry drop and zone-reset invalidation
./internal/l2pcache  ^(BenchmarkLookupHit|BenchmarkMissInsertEvict|BenchmarkInsertZoneAggregationHeavy|BenchmarkInvalidateRangeZoneReset)$  200000x    6     0
# write path: program unit (timing, stamped) and buffer append
./internal/nand      ^BenchmarkProgramPU$                                                       2000x      2     0
./internal/wbuf      ^BenchmarkAppend$                                                          200000x    1     0
# data movement: combine and staging GC
./internal/ftl       ^BenchmarkCombine$                                                         2000x      1     0
./internal/slc       ^BenchmarkCollect$                                                         2000x      1     0
# read path: completion queue, arbiter, zone-lock table, read pool, the FTL's one read body, reserve, page read, zone check
./internal/host      ^(BenchmarkComplQueue|BenchmarkArbiter|BenchmarkZoneLocks|BenchmarkReadPool)$  200000x    4     0
./internal/ftl       ^BenchmarkEmulatorRandRead$                                                200000x    1     0
./internal/sim       ^BenchmarkReserve$                                                         200000x    1     0
./internal/nand      ^BenchmarkReadPage$                                                        200000x    1     0
./internal/zns       ^BenchmarkValidateRead$                                                    200000x    1     0
# workload event loop per I/O at QD 1 and 16
./internal/workload  ^BenchmarkRun$                                                             20000x     2     0
# comparators: FEMU-lineage write and read (femu, confzns), legacy flush, legacy random read
./internal/femu      ^(BenchmarkWrite|BenchmarkReadInto)$                                       2000x      4     0
./internal/legacy    ^BenchmarkFlush$                                                           2000x      1     0
.                    ^BenchmarkLegacyRandRead$                                                  200x       1     0
# a read-back costs one copy: ReadInto none, Read exactly one
.                    ^BenchmarkDeviceReadInto$                                                  200x       1     0
.                    ^BenchmarkDeviceRead$                                                      200x       1     1
EOF
exit $status
