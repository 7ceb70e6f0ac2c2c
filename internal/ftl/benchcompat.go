// The frozen bench/trace.go names these three methods in the method set it
// demands of *FTL; it is their only reference and nothing in this module calls
// them. The next benchmark PR drops them there and deletes this file.
package ftl

import "github.com/conzone/conzone/internal/sim"

func (f *FTL) ReadsShardable() bool { return false }

func (f *FTL) StageRead(at sim.Time, lba, n int64, dst [][]byte) {
	done, err := f.ReadInto(at, lba, n, dst)
	f.compatDone, f.compatErr = append(f.compatDone, done), append(f.compatErr, err)
}

func (f *FTL) DrainStagedReads(emit func(i int, done sim.Time, err error)) {
	for i, done := range f.compatDone {
		emit(i, done, f.compatErr[i])
	}
	f.compatDone, f.compatErr = f.compatDone[:0], f.compatErr[:0]
}
