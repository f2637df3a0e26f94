package clihelper

import (
	"flag"
	"reflect"
	"testing"

	"repro/internal/atomicx"
	"repro/internal/queues"
	"repro/internal/ringcore"
)

func TestRegisterDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs, 1<<16)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Capacity != 1<<16 || f.Batch != 0 || f.Emulate || f.Slowpath || f.Blocking || f.Metrics {
		t.Fatalf("defaults: %+v", f)
	}
	cfg := f.Config(8)
	if cfg.Capacity != 1<<16 || cfg.MaxThreads != 8 || cfg.Core != (ringcore.Options{}) {
		t.Fatalf("config: %+v", cfg)
	}
}

func TestRegisterParse(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs, 256)
	err := fs.Parse([]string{"-capacity", "512", "-batch", "32", "-emulate", "-slowpath", "-blocking", "-metrics"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := f.Config(4)
	if cfg.Capacity != 512 || cfg.MaxThreads != 4 || cfg.Core.Mode != atomicx.EmulatedFAA {
		t.Fatalf("config: %+v", cfg)
	}
	if cfg.Core.EnqPatience != 1 || cfg.Core.DeqPatience != 1 || cfg.Core.HelpDelay != 1 {
		t.Fatalf("slowpath options: %+v", cfg.Core)
	}
	if cfg.Core.Metrics == nil {
		t.Fatal("-metrics built no sink")
	}
	if f.Batch != 32 || !f.Blocking {
		t.Fatalf("flags: %+v", f)
	}
	for _, gone := range []string{"ring", "shards"} {
		if fs.Lookup(gone) != nil {
			t.Fatalf("-%s is registered", gone)
		}
	}
}

func TestParseFloatList(t *testing.T) {
	got, err := ParseFloatList(" 0.25,0.5 ,1.1")
	if err != nil || !reflect.DeepEqual(got, []float64{0.25, 0.5, 1.1}) {
		t.Fatalf("ParseFloatList = %v, %v", got, err)
	}
	if got, err := ParseFloatList(""); got != nil || err != nil {
		t.Fatalf("empty list = %v, %v", got, err)
	}
	for _, bad := range []string{"0.5,nan", "NaN", "Inf", "+Inf", "-Inf", "0.5,inf", "0", "-1", "0.5,", "x"} {
		if got, err := ParseFloatList(bad); err == nil {
			t.Errorf("ParseFloatList(%q) = %v, want an error", bad, got)
		}
	}
}

func TestParseIntList(t *testing.T) {
	got, err := ParseIntList("8, 1024")
	if err != nil || !reflect.DeepEqual(got, []int{8, 1024}) {
		t.Fatalf("ParseIntList = %v, %v", got, err)
	}
	for _, bad := range []string{"0", "-8", "8,", "1.5"} {
		if got, err := ParseIntList(bad); err == nil {
			t.Errorf("ParseIntList(%q) = %v, want an error", bad, got)
		}
	}
}

func TestQueueNames(t *testing.T) {
	var f Flags
	if got := f.QueueNames("wCQ"); !reflect.DeepEqual(got, []string{"wCQ"}) {
		t.Fatalf("concrete name: %v", got)
	}
	if got := f.QueueNames("all"); !reflect.DeepEqual(got, queues.RealQueues()) {
		t.Fatalf("all: %v", got)
	}
	f.Blocking = true
	if got := f.QueueNames("all"); !reflect.DeepEqual(got, queues.BlockingQueues()) {
		t.Fatalf("all blocking: %v", got)
	}
}
