package storage

import "testing"

// TestDirBackendSub pins the on-disk sub-tree contract: files in a
// sub-tree live in their own directory, invisible to the parent's
// List, and the same name reopens the same tree.
func TestDirBackendSub(t *testing.T) {
	root, err := NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Sub(root, "shard-0")
	if err != nil {
		t.Fatal(err)
	}
	f, err := sub.Create("wal-000001")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := root.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("sub-tree files leaked into parent List: %v", names)
	}
	// Reopening the same name sees the same tree.
	again, err := Sub(root, "shard-0")
	if err != nil {
		t.Fatal(err)
	}
	data, err := again.ReadFile("wal-000001")
	if err != nil || string(data) != "rec" {
		t.Fatalf("reopened sub-tree: %q, %v", data, err)
	}
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, err := Sub(root, bad); err == nil {
			t.Fatalf("Sub(%q) accepted", bad)
		}
	}
}

// TestMemBackendSubCrashCascades pins the fleet crash model: a parent
// Crash is one machine's power cut, so every shard sub-tree loses its
// unsynced bytes too, and handles open in a child at crash time die.
func TestMemBackendSubCrashCascades(t *testing.T) {
	root := NewMemBackend()
	subB, err := Sub(root, "shard-1")
	if err != nil {
		t.Fatal(err)
	}
	f, err := subB.Create("wal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("+lost")); err != nil {
		t.Fatal(err)
	}
	root.Crash()
	if _, err := f.Write([]byte("x")); err != ErrCrashed {
		t.Fatalf("write on crashed child handle: %v, want ErrCrashed", err)
	}
	data, err := subB.ReadFile("wal")
	if err != nil || string(data) != "durable" {
		t.Fatalf("child after parent crash: %q, %v", data, err)
	}
	// Same name still resolves to the same (recovered) child.
	again, err := Sub(root, "shard-1")
	if err != nil {
		t.Fatal(err)
	}
	if again != subB {
		t.Fatal("Sub is not idempotent on MemBackend")
	}
}

// TestMemBackendSubSkipSync: the skip-sync tamper hook covers the whole
// tree. A child carved out before the hook is set and one carved out
// after both acknowledge a Sync, and both lose the write on the parent's
// Crash.
func TestMemBackendSubSkipSync(t *testing.T) {
	root := NewMemBackend()
	before, err := Sub(root, "shard-0")
	if err != nil {
		t.Fatal(err)
	}
	root.SetSkipSync(true)
	after, err := Sub(root, "shard-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, child := range []Backend{before, after} {
		f, err := child.Create("wal")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("acked")); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("tampered Sync must still report success: %v", err)
		}
	}
	root.Crash()
	for i, child := range []Backend{before, after} {
		if data, err := child.ReadFile("wal"); err != nil || len(data) != 0 {
			t.Fatalf("child %d kept %q (%v) across a skip-sync crash", i, data, err)
		}
	}
}

// TestSubUnsupportedBackend: a backend without sub-tree support fails
// loudly instead of silently sharing one namespace across shards.
func TestSubUnsupportedBackend(t *testing.T) {
	var flat flatOnly
	if _, err := Sub(flat, "shard-0"); err == nil {
		t.Fatal("Sub on a flat backend succeeded")
	}
}

type flatOnly struct{ Backend }
