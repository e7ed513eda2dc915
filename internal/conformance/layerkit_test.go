package conformance

import (
	"bytes"
	"runtime"
	"testing"

	"springfs"
	"springfs/internal/fsys"
	"springfs/internal/naming"
)

// passthroughLayers builds every layer that rides fsys.Passthrough, each on
// a fresh SFS (the coherency layer is SFS's own top, in one domain with the
// disk layer and split from it; the DFS server is seen from its own
// machine).
func passthroughLayers(t *testing.T) map[string]springfs.StackableFS {
	t.Helper()
	node := springfs.NewNode("layerkit")
	t.Cleanup(node.Stop)
	sfs := func(name string, split bool) springfs.StackableFS {
		b, err := node.Build(springfs.Spec{Disks: []springfs.DiskSpec{{Name: name, Blocks: 2048, SeparateDomains: split}}})
		if err != nil {
			t.Fatal(err)
		}
		return b.Top
	}
	on := func(creator string, config map[string]string, under springfs.StackableFS) springfs.StackableFS {
		layer, err := node.ConfigureStack(creator, config, []springfs.StackableFS{under}, "")
		if err != nil {
			t.Fatal(err)
		}
		return layer
	}
	return map[string]springfs.StackableFS{
		"cryptfs":        on("cryptfs_creator", map[string]string{"name": "cryptfs", "passphrase": "layerkit-passphrase"}, sfs("under-crypt", false)),
		"compfs":         on("compfs_creator", map[string]string{"name": "compfs"}, sfs("under-comp", false)),
		"coherency-1dom": sfs("coh1", false),
		"coherency-2dom": sfs("coh2", true),
		"dfs-local":      on("dfs_creator", map[string]string{"name": "dfs"}, sfs("under-dfs", false)),
		"passthrough":    on("identity_creator", map[string]string{"name": "ident"}, sfs("under-ident", false)),
	}
}

// TestSubContextsStayInsideTheLayer: a file reached through a directory the
// layer handed out — the context CreateContext returned, or one resolved
// by name — must be the layer's own file, byte for byte and object for
// object, not the lower layer's (whose bytes are ciphertext under cryptfs
// and a DEFLATE image under compfs).
func TestSubContextsStayInsideTheLayer(t *testing.T) {
	for name, fs := range passthroughLayers(t) {
		t.Run(name, func(t *testing.T) {
			created, err := fs.CreateContext("d", naming.Root)
			if err != nil {
				t.Fatal(err)
			}
			f, err := fs.Create("d/f", naming.Root)
			if err != nil {
				t.Fatal(err)
			}
			want := bytes.Repeat([]byte("sub-contexts must not bypass the layer. "), 300)
			if _, err := f.WriteAt(want, 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			full, err := fs.Resolve("d/f", naming.Root)
			if err != nil {
				t.Fatal(err)
			}
			resolved, err := fs.Resolve("d", naming.Root)
			if err != nil {
				t.Fatal(err)
			}
			routes := map[string]naming.Context{
				"the context CreateContext returned": created,
				`Resolve("d")`:                       resolved.(naming.Context),
			}
			for route, ctx := range routes {
				obj, err := ctx.Resolve("f", naming.Root)
				if err != nil {
					t.Fatalf("%s: %v", route, err)
				}
				if obj != full {
					t.Errorf("%s: f is %T, not the canonical wrapper %T that d/f resolves to", route, obj, full)
				}
				got := make([]byte, len(want))
				if _, err := obj.(fsys.File).ReadAt(got, 0); err != nil {
					t.Fatalf("%s: read: %v", route, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: f reads back different bytes than were written through the layer", route)
				}
			}
		})
	}
}

// TestDirectoryResolvesLeaveNoState: across domains every lower resolve of
// a directory mints a fresh context proxy, so a layer that remembers its
// directory wrappers by lower context grows by one entry per resolve and
// never shrinks. The wrappers are stateless: a thousand resolves leave the
// handle table and the heap where they were.
func TestDirectoryResolvesLeaveNoState(t *testing.T) {
	node := springfs.NewNode("dirs")
	defer node.Stop()
	b, err := node.Build(springfs.Spec{Disks: []springfs.DiskSpec{{Name: "sfs", Blocks: 2048, SeparateDomains: true}}})
	if err != nil {
		t.Fatal(err)
	}
	sfs := b.Disks["sfs"]
	fs := sfs.Coherency
	if _, err := fs.CreateContext("d", naming.Root); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("d/f", naming.Root); err != nil {
		t.Fatal(err)
	}
	resolve := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := fs.Resolve("d", naming.Root); err != nil {
				t.Fatal(err)
			}
		}
	}
	heapObjects := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapObjects
	}
	resolve(10) // warm up
	files, before := len(sfs.Coherency.Files()), heapObjects()
	resolve(1000)
	if n := len(sfs.Coherency.Files()); n != files {
		t.Errorf("handle table grew from %d to %d entries over 1000 directory resolves", files, n)
	}
	if after := heapObjects(); after > before+200 {
		t.Errorf("1000 directory resolves left %d live heap objects behind", after-before)
	}
}
