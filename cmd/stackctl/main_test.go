package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"springfs"
	"springfs/internal/blockdev"
	"springfs/internal/disklayer"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

func TestExampleConfigParses(t *testing.T) {
	spec, export, err := parse([]byte(example))
	if err != nil {
		t.Fatalf("the embedded example does not parse: %v", err)
	}
	if len(spec.Disks) != 2 || len(spec.Layers) != 3 || len(export) != 1 {
		t.Errorf("example shape: %+v, export %v", spec, export)
	}
}

func TestBuildExampleStack(t *testing.T) {
	spec, export, err := parse([]byte(example))
	if err != nil {
		t.Fatal(err)
	}
	if err := build(spec, export); err != nil {
		t.Fatalf("building the example stack: %v", err)
	}
}

func TestBuildErrors(t *testing.T) {
	disk := []springfs.DiskSpec{{Name: "d"}}
	tests := []struct {
		name   string
		spec   springfs.Spec
		export []string
	}{
		{"unknown underlying fs", springfs.Spec{
			Layers: []springfs.LayerSpec{{Name: "l", Creator: "compfs_creator", On: []string{"nope"}}},
		}, nil},
		{"unknown creator", springfs.Spec{
			Disks:  disk,
			Layers: []springfs.LayerSpec{{Name: "l", Creator: "bogus_creator", On: []string{"d"}}},
		}, nil},
		{"unknown export", springfs.Spec{Disks: disk}, []string{"ghost"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := build(tt.spec, tt.export); err == nil {
				t.Error("build succeeded, want error")
			}
		})
	}
}

// TestFsckCommand runs `stackctl fsck` against a deliberately corrupted
// image file: detect (exit 1), repair (exit 0), verify clean (exit 0).
func TestFsckCommand(t *testing.T) {
	image := filepath.Join(t.TempDir(), "sfs.img")
	dev, err := blockdev.OpenFile(image, 256, blockdev.ProfileNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	node := spring.NewNode("fsck-test")
	defer node.Stop()
	fs, err := disklayer.Mount(dev, spring.NewDomain(node, "disk"),
		vm.New(spring.NewDomain(node, "vmm"), "vmm"), "img")
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("victim.txt", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("stackctl fsck test file"), 0); err != nil {
		t.Fatal(err)
	}
	geo := fs.Geometry()
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the image: mark a free data block allocated with no
	// referent — a leaked block.
	buf := make([]byte, blockdev.BlockSize)
	if err := dev.ReadBlock(geo.BitmapStart, buf); err != nil {
		t.Fatal(err)
	}
	leaked := geo.NBlocks - 1
	buf[leaked/8] |= 1 << (leaked % 8)
	if err := dev.WriteBlock(geo.BitmapStart+leaked/(blockdev.BlockSize*8), buf); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if code := runFsck([]string{image}, &out); code != 1 {
		t.Fatalf("fsck on corrupted image: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "leaked-block") {
		t.Errorf("detect output missing leaked-block:\n%s", out.String())
	}

	out.Reset()
	if code := runFsck([]string{"-repair", image}, &out); code != 0 {
		t.Fatalf("fsck -repair: exit %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "[repaired]") {
		t.Errorf("repair output missing [repaired]:\n%s", out.String())
	}

	out.Reset()
	if code := runFsck([]string{image}, &out); code != 0 {
		t.Fatalf("fsck after repair: exit %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "clean") {
		t.Errorf("verify output missing clean:\n%s", out.String())
	}

	out.Reset()
	if code := runFsck([]string{filepath.Join(t.TempDir(), "missing.img")}, &out); code != 2 {
		t.Errorf("fsck on missing image: exit %d, want 2", code)
	}
}
