package freecursive

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"freecursive/internal/adversary"
	"freecursive/internal/backend"
	"freecursive/internal/core"
	"freecursive/internal/crypt"
)

func TestDefaults(t *testing.T) {
	o, err := New(Config{Blocks: 1 << 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if o.BlockBytes() != 64 || o.Blocks() != 1<<12 {
		t.Fatalf("defaults wrong: %d x %dB", o.Blocks(), o.BlockBytes())
	}
	if o.SchemeName() != "PIC_X32" {
		t.Fatalf("scheme name %s", o.SchemeName())
	}
}

// retiredSchemes are the paper's ablation points, by the names New once
// served them under. They build through core.Params only.
var retiredSchemes = map[string]core.Scheme{
	"Recursive": core.SchemeRecursive, "PLB": core.SchemeP, "PC": core.SchemePC, "PI": core.SchemePI,
}

// TestAllSchemesRoundTrip: every scheme of the paper still stores data, but
// only PIC is built by New. The ablation points build through core.Params,
// which is where New's rejection of every other Scheme value points.
func TestAllSchemesRoundTrip(t *testing.T) {
	for s := Scheme(1); s <= 4; s++ {
		if _, err := New(Config{Scheme: s, Blocks: 1 << 10}); err == nil || !strings.Contains(err.Error(), "core.Params") {
			t.Errorf("New(Scheme(%d)) = %v, want a rejection pointing to core.Params", int(s), err)
		}
	}
	roundTrip := func(t *testing.T, access func(addr uint64, write bool, data []byte) ([]byte, error)) {
		prev, err := access(7, true, []byte("hello"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(prev, make([]byte, 64)) {
			t.Fatal("first write should return zeros")
		}
		got, err := access(7, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:5]) != "hello" {
			t.Fatalf("read %q", got[:5])
		}
	}
	t.Run("PIC", func(t *testing.T) {
		o, err := New(Config{Blocks: 1 << 10, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, func(addr uint64, write bool, data []byte) ([]byte, error) {
			if write {
				return o.Write(addr, data)
			}
			return o.Read(addr)
		})
	})
	for name, s := range retiredSchemes {
		t.Run(name, func(t *testing.T) {
			sys, err := core.Build(core.Params{Scheme: s, NBlocks: 1 << 10, Functional: true, EncScheme: crypt.SeedGlobal, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			roundTrip(t, sys.Frontend.Access)
		})
	}
}

// TestRandomOpsAgainstMap (property): the ORAM behaves as flat memory under
// arbitrary random op sequences, for the flagship scheme.
func TestRandomOpsAgainstMap(t *testing.T) {
	o, err := New(Config{Blocks: 1 << 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref := map[uint64][]byte{}
	f := func(addrRaw uint16, val uint8, write bool) bool {
		addr := uint64(addrRaw) % (1 << 10)
		if write {
			data := bytes.Repeat([]byte{val}, 64)
			if _, err := o.Write(addr, data); err != nil {
				return false
			}
			ref[addr] = data
			return true
		}
		got, err := o.Read(addr)
		if err != nil {
			return false
		}
		want := ref[addr]
		if want == nil {
			want = make([]byte, 64)
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsPopulated(t *testing.T) {
	o, _ := New(Config{Blocks: 1 << 10, Seed: 5})
	for i := uint64(0); i < 100; i++ {
		if _, err := o.Write(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s := o.Stats()
	if s.Accesses != 100 || s.BackendAccesses == 0 || s.BytesMoved == 0 {
		t.Fatalf("stats empty: %+v", s)
	}
	if s.Violations != 0 {
		t.Fatal("unexpected violations")
	}
}

func TestIntegrityViolationSurfaced(t *testing.T) {
	o, err := New(Config{Blocks: 1 << 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Write enough blocks that most leave the trusted stash for the tree.
	for a := uint64(0); a < 128; a++ {
		if _, err := o.Write(a, []byte{byte(a)}); err != nil {
			t.Fatal(err)
		}
	}
	be := o.System().Backends[0].(*backend.PathORAM)
	for idx := uint64(0); idx < be.Geometry().Buckets(); idx++ {
		if raw := adversary.Inspect(be.Store(), idx); raw != nil {
			raw[len(raw)-1] ^= 0xff // corrupt the ciphertext body
			raw[7] ^= 0x01          // and nudge the encryption seed
			if err := be.Store().Write(idx, raw); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := o.Violation(); err != nil {
		t.Fatalf("violation latched before any access saw tampering: %v", err)
	}
	var lastErr error
	for a := uint64(0); a < 128; a++ {
		if _, lastErr = o.Read(a); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrIntegrity) {
		t.Fatalf("expected ErrIntegrity, got %v", lastErr)
	}
	// The violation is introspectable without issuing another access, and
	// matches what the failing access returned.
	if err := o.Violation(); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("Violation() = %v, want the latched ErrIntegrity", err)
	}
}

// TestConfigValidation: page files and a bucketd at once are refused by
// core's one check, before the page-file directory is created.
func TestConfigValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trees")
	_, err := New(Config{Blocks: 1 << 10, DataDir: dir, MemAddr: "127.0.0.1:1", MemNamespace: "ns"})
	if want := "core: durable (DataDir) and remote (MemAddr) untrusted memory are mutually exclusive"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("New with DataDir and MemAddr: %v, want %q", err, want)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("the refused config created its DataDir (stat: %v)", err)
	}
	if _, err := New(Config{Blocks: 1 << 10}); err != nil {
		t.Fatal(err)
	}
}
