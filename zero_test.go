package freecursive_test

import (
	"testing"

	"freecursive"
	"freecursive/internal/store"
)

// TestZeroConfigIsPIC: a config that names no scheme builds the paper's
// deployable configuration, PMMAC included, both for one ORAM and for every
// shard of a store.
func TestZeroConfigIsPIC(t *testing.T) {
	o, err := freecursive.New(freecursive.Config{Blocks: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if got := o.SchemeName(); got != "PIC_X32" {
		t.Errorf("zero Config builds %s, want PIC_X32", got)
	}
	if _, err := o.Write(3, []byte("pic")); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Read(3); err != nil {
		t.Fatal(err)
	}
	if o.Stats().MACChecks == 0 {
		t.Error("zero Config verified no MAC on a write then read")
	}

	s, err := store.New(store.Config{Shards: 2, Blocks: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Put(3, []byte("pic")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(3); err != nil {
		t.Fatal(err)
	}
	if s.Stats().MACChecks == 0 {
		t.Error("store with no scheme set verified no MAC on a write then read")
	}
}
