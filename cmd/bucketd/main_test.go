package main

import (
	"net"
	"os"
	"testing"
	"time"

	"freecursive/internal/bucketd"
	"freecursive/internal/mem"
)

// TestRunServesUntilStopped: run serves the bucket protocol on its
// listener, and a stop signal makes it return nil once the server is shut.
func TestRunServesUntilStopped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run(ln, bucketd.Config{}, stop) }()

	r, err := mem.DialRemote(mem.RemoteConfig{Addr: ln.Addr().String(), Namespace: "cmd/bucketd"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Write(1, []byte("bucket")); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Bytes != 6 {
		t.Errorf("Stats round trip: %+v, want 6 bytes", st)
	}

	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run after stop: %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after stop")
	}
	r.Close()
}
