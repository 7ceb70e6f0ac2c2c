package conzone_test

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"

	"github.com/conzone/conzone"
)

// Open a device with the paper's evaluation configuration, write a zone
// sequentially, and inspect what the internals did with the data.
func Example() {
	dev, err := conzone.Open(conzone.PaperConfig())
	if err != nil {
		log.Fatal(err)
	}
	// 768 KiB = two superpages: both flush directly to TLC.
	if err := dev.Write(0, make([]byte, 768<<10)); err != nil {
		log.Fatal(err)
	}
	st := dev.Stats()
	fmt.Println("direct program units:", st.FTL.DirectPUs)
	fmt.Println("staged to SLC:", st.FTL.StagedSectors)
	fmt.Printf("WAF: %.2f\n", st.WAF)
	// Output:
	// direct program units: 8
	// staged to SLC: 0
	// WAF: 1.00
}

// A synchronous flush after a small write sends the sub-programming-unit
// tail through the SLC secondary buffer (paper Fig. 3 path ②).
func ExampleDevice_FlushZone() {
	dev, err := conzone.Open(conzone.PaperConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := dev.Write(0, make([]byte, 20<<10)); err != nil { // 20 KiB < 96 KiB PU
		log.Fatal(err)
	}
	if err := dev.FlushZone(0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("staged sectors:", dev.Stats().FTL.StagedSectors)
	// Output:
	// staged sectors: 5
}

// Zone management follows the NVMe ZNS state machine.
func ExampleDevice_ResetZone() {
	dev, err := conzone.Open(conzone.PaperConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := dev.Write(0, make([]byte, 4096)); err != nil {
		log.Fatal(err)
	}
	z, _ := dev.Zone(0)
	fmt.Println("after write:", z.State)
	if err := dev.ResetZone(0); err != nil {
		log.Fatal(err)
	}
	z, _ = dev.Zone(0)
	fmt.Println("after reset:", z.State)
	// Output:
	// after write: IMPLICIT_OPEN
	// after reset: EMPTY
}

// RunJob drives any device model with an fio-style micro-benchmark in
// virtual time; results are exactly reproducible.
func ExampleRunJob() {
	dev, err := conzone.Open(conzone.PaperConfig())
	if err != nil {
		log.Fatal(err)
	}
	res, err := conzone.RunJob(dev.FTL(), conzone.Job{
		Name:             "seqwrite",
		Pattern:          conzone.SeqWrite,
		BlockBytes:       512 << 10,
		NumJobs:          1,
		RangeBytes:       64 << 20,
		TotalBytesPerJob: 64 << 20,
		FlushAtEnd:       true,
		Seed:             1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d MiB at %.0f MiB/s (virtual)\n", res.Bytes>>20, res.BandwidthMiBps)
	// Output:
	// wrote 64 MiB at 403 MiB/s (virtual)
}

// Conventional zones (the paper's §III-E extension) accept in-place
// updates, as F2FS metadata requires.
func ExampleConfig_conventionalZones() {
	cfg := conzone.PaperConfig()
	cfg.FTL.ConventionalZones = 1
	dev, err := conzone.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Overwrite the same 4 KiB metadata slot twice: no reset needed.
	for v := 0; v < 2; v++ {
		if err := dev.Write(128<<10, make([]byte, 4096)); err != nil {
			log.Fatal(err)
		}
	}
	z, _ := dev.Zone(0)
	fmt.Println("zone 0 type:", z.Type)
	// Output:
	// zone 0 type: CONVENTIONAL
}

// Keep a window of Zone Appends in flight on one queue with Submit and Wait.
// The queue's depth is the window: when Submit reports the queue full, Wait
// for your own oldest command — the one reap that frees a slot even when
// another submitter shares the queue — and submit again. Each completion
// carries the LBA the device assigned.
func ExampleDevice_Submit() {
	dev, err := conzone.Open(conzone.PaperConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := dev.ConfigureQueues(4, 16); err != nil { // 4 queues, depth 16
		log.Fatal(err)
	}
	sectors := make([][]byte, 8) // one 32 KiB command, 4 KiB per sector
	for i := range sectors {
		sectors[i] = make([]byte, conzone.SectorSize)
	}

	var inflight []conzone.Tag
	var lbas []int64
	reap := func() { // wait for our own oldest command
		comp, _ := dev.Wait(inflight[0])
		if comp.Err != nil {
			log.Fatal(comp.Err)
		}
		inflight, lbas = inflight[1:], append(lbas, comp.LBA)
	}
	for i := 0; i < 48; i++ {
		req := conzone.HostRequest{Op: conzone.OpAppend, Zone: 3, Payloads: sectors}
		tag, err := dev.Submit(0, req)
		for errors.Is(err, conzone.ErrQueueFull) && len(inflight) > 0 {
			reap()
			tag, err = dev.Submit(0, req)
		}
		if err != nil {
			log.Fatal(err)
		}
		inflight = append(inflight, tag)
	}
	for len(inflight) > 0 {
		reap()
	}

	z, _ := dev.Zone(3)
	fmt.Println("window:", dev.Host().Depth(), "commands")
	fmt.Println("appends:", len(lbas), "landing at sectors", lbas[0]-z.Start, "to", lbas[len(lbas)-1]-z.Start, "of zone 3")
	fmt.Println("virtual time:", dev.Now())
	// Output:
	// window: 16 commands
	// appends: 48 landing at sectors 0 to 376 of zone 3
	// virtual time: 58.592µs
}

// A zone's life through the NVMe ZNS state machine: a Zone Append opens it
// implicitly and reports where the data landed, Close parks it, Finish seals
// it FULL, and the zone report shows each step.
func ExampleDevice_FinishZone() {
	dev, err := conzone.Open(conzone.PaperConfig())
	if err != nil {
		log.Fatal(err)
	}
	show := func(step string) {
		z := dev.Zones()[2]
		fmt.Printf("%-7s %-13s %d sectors written\n", step, z.State, z.Written())
	}
	off, err := dev.Append(2, make([]byte, 64<<10))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("append landed at zone offset", off-2*dev.ZoneBytes())
	show("append")
	if err := dev.CloseZone(2); err != nil {
		log.Fatal(err)
	}
	show("close")
	if err := dev.FinishZone(2); err != nil {
		log.Fatal(err)
	}
	show("finish")
	// Output:
	// append landed at zone offset 0
	// append  IMPLICIT_OPEN 16 sectors written
	// close   CLOSED        16 sectors written
	// finish  FULL          4096 sectors written
}

// Grown bad blocks and wear: a scripted erase failure retires the block a
// zone reset tries to erase, the device carries on from its spares, and the
// wear report counts the erases that did happen.
func ExampleDevice_Wear() {
	cfg := conzone.SmallConfig()
	cfg.FTL.Faults = &conzone.FaultConfig{Scripts: []conzone.FaultScript{
		{Chip: 0, Block: 6, Op: conzone.FaultErase},
	}}
	dev, err := conzone.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	data := make([]byte, dev.ZoneBytes())
	for cycle := 0; cycle < 3; cycle++ {
		for zone := 0; zone < 2; zone++ {
			if err := dev.Write(int64(zone)*dev.ZoneBytes(), data); err != nil {
				log.Fatal(err)
			}
			if err := dev.ResetZone(zone); err != nil {
				log.Fatal(err)
			}
		}
	}
	for _, b := range dev.BadBlocks() {
		fmt.Printf("bad block: chip %d block %d (%v failed)\n", b.Chip, b.Block, b.Op)
	}
	fmt.Println("mean erases per normal superblock:", dev.Wear().NormalSB)
	// Output:
	// bad block: chip 0 block 6 (erase failed)
	// mean erases per normal superblock: [0.25 1 1 1 1 1 0 0 0 0]
}

// The comparator device models run the same fio-style jobs as ConZone; here
// 512 KiB sequential writes, which every model serves at its own bandwidth.
func ExampleRunJob_comparators() {
	cfg := conzone.PaperConfig()
	legacy, err := conzone.NewLegacy(cfg)
	if err != nil {
		log.Fatal(err)
	}
	femu, err := conzone.NewFEMU(cfg)
	if err != nil {
		log.Fatal(err)
	}
	confzns, err := conzone.NewConfZNS(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range []struct {
		name string
		dev  conzone.WorkloadDevice
	}{{"Legacy", legacy}, {"FEMU", femu}, {"ConfZNS", confzns}} {
		res, err := conzone.RunJob(m.dev, conzone.Job{
			Name:             "seqwrite",
			Pattern:          conzone.SeqWrite,
			BlockBytes:       512 << 10,
			NumJobs:          1,
			RangeBytes:       32 << 20,
			TotalBytesPerJob: 32 << 20,
			FlushAtEnd:       true,
			Seed:             1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %.0f MiB/s (virtual)\n", m.name, res.BandwidthMiBps)
	}
	// Output:
	// Legacy   379 MiB/s (virtual)
	// FEMU     384 MiB/s (virtual)
	// ConfZNS  251 MiB/s (virtual)
}

// A configuration saved as JSON with Config.Save loads back unchanged, so a
// device can be described in a file (conzone-bench -config takes one).
func ExampleLoadConfig() {
	dir, err := os.MkdirTemp("", "conzone-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "small.json")

	cfg := conzone.SmallConfig()
	cfg.FTL.NumWriteBuffers = 4
	if err := cfg.Save(path); err != nil {
		log.Fatal(err)
	}
	loaded, err := conzone.LoadConfig(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("round trip unchanged:", reflect.DeepEqual(loaded, cfg))
	dev, err := conzone.Open(loaded)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d zones of %d KiB, %d write buffers\n", dev.NumZones(), dev.ZoneBytes()>>10, loaded.FTL.NumWriteBuffers)
	// Output:
	// round trip unchanged: true
	// 10 zones of 2048 KiB, 4 write buffers
}
