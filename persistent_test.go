package springfs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestPersistentSFS verifies a file-backed volume: Build formats the host
// file on first use, and data written through a full stack survives
// stopping the node, the process-level analogue of a reboot, without the
// image being formatted again.
func TestPersistentSFS(t *testing.T) {
	img := filepath.Join(t.TempDir(), "volume.img")
	payload := []byte("bytes on a real host file")

	node := NewNode("persist")
	sfs := buildSFS(t, node, DiskSpec{Name: "vol", Blocks: 1024, Path: img})
	if sfs.Device != nil {
		t.Error("file-backed volume reports a RAM device")
	}
	if err := WriteFile(sfs.Coherency, "f", payload); err != nil {
		t.Fatal(err)
	}
	if err := sfs.Coherency.SyncFS(); err != nil {
		t.Fatal(err)
	}
	if err := sfs.Disk.Device().Close(); err != nil {
		t.Fatal(err)
	}
	node.Stop()

	// "Reboot": a fresh node over the same image.
	node2 := NewNode("persist2")
	defer node2.Stop()
	sfs2 := buildSFS(t, node2, DiskSpec{Name: "vol", Path: img})
	got, err := ReadFile(sfs2.Coherency, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("after reboot = %q", got)
	}
	// The remounted volume takes new writes.
	if err := WriteFile(sfs2.Coherency, "g", []byte("second boot")); err != nil {
		t.Fatal(err)
	}
}

// TestBuildRefusesForeignImage: a host file that holds something other
// than a volume is an error, and Build leaves every byte of it alone
// rather than formatting over it.
func TestBuildRefusesForeignImage(t *testing.T) {
	img := filepath.Join(t.TempDir(), "foreign.img")
	want := bytes.Repeat([]byte{0xAA}, 4<<20)
	if err := os.WriteFile(img, want, 0o644); err != nil {
		t.Fatal(err)
	}
	node := NewNode("foreign")
	defer node.Stop()
	if _, err := node.Build(Spec{Disks: []DiskSpec{{Name: "vol", Path: img}}}); err == nil {
		t.Error("Build mounted a file that is not a volume")
	}
	if got, err := os.ReadFile(img); err != nil || !bytes.Equal(got, want) {
		t.Errorf("the foreign file changed: %d bytes, %v", len(got), err)
	}
}
