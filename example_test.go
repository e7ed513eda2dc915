package springfs_test

import (
	"fmt"
	"log"
	"strings"
	"sync/atomic"

	"springfs"
	"springfs/internal/fsys"
)

// The quickstart: a node, a stack of one SFS, a file.
func Example() {
	node := springfs.NewNode("example")
	defer node.Stop()

	stack, err := node.Build(springfs.Spec{Disks: []springfs.DiskSpec{{Name: "sfs0a"}}})
	if err != nil {
		log.Fatal(err)
	}
	if err := springfs.WriteFile(stack.Top, "hello.txt", []byte("hello, spring")); err != nil {
		log.Fatal(err)
	}
	data, err := springfs.ReadFile(stack.Top, "hello.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(data))
	// Output: hello, spring
}

// Stacking layers with the Section 4.4 recipe: the creator is looked up in
// the well-known /fs_creators context, an instance is created, stacked,
// and bound into the name space.
func ExampleNode_ConfigureStack() {
	node := springfs.NewNode("example")
	defer node.Stop()
	stack, err := node.Build(springfs.Spec{Disks: []springfs.DiskSpec{{Name: "sfs0a"}}})
	if err != nil {
		log.Fatal(err)
	}
	layer, err := node.ConfigureStack("compfs_creator",
		map[string]string{"name": "compfs"},
		[]springfs.StackableFS{stack.Top}, "compfs")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(layer.FSName(), "stacked on", stack.Top.FSName())
	// Files created through the layer are reachable by name.
	if err := springfs.WriteFile(layer, "doc", []byte("transparent")); err != nil {
		log.Fatal(err)
	}
	obj, err := node.Root().Resolve("compfs/doc", springfs.Root)
	if err != nil {
		log.Fatal(err)
	}
	_, isFile := obj.(springfs.File)
	fmt.Println("resolved through the name space:", isFile)
	// Output:
	// compfs stacked on sfs0a
	// resolved through the name space: true
}

// A stack described as data: the fs4 configuration of Figure 3, one
// mirroring layer stacked on two SFS instances, the first behind a fault
// layer that stands for the link to it. Writes reach both replicas; with
// the link down and the caches cold, the data still comes back from the
// second, and writes degrade to it instead of failing.
func ExampleNode_Build() {
	node := springfs.NewNode("example")
	defer node.Stop()
	var linkDown atomic.Bool
	err := fsys.RegisterCreator(node.Root(), "fault_creator", fsys.CreatorFunc(func(config map[string]string) (fsys.StackableFS, error) {
		return fsys.NewFaultFS(config["name"], func(op string) error {
			if linkDown.Load() {
				return fmt.Errorf("%s: link down: %w", op, fsys.ErrUnavailable)
			}
			return nil
		}), nil
	}), springfs.Root)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := node.Build(springfs.Spec{
		Disks: []springfs.DiskSpec{{Name: "sfs1", Blocks: 2048}, {Name: "sfs2", Blocks: 2048}},
		Layers: []springfs.LayerSpec{
			{Name: "link1", Creator: "fault_creator", On: []string{"sfs1"}},
			{Name: "mirror", Creator: "mirrorfs_creator", On: []string{"link1", "sfs2"}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top of the stack:", stack.Top.FSName())
	if err := springfs.WriteFile(stack.Top, "precious.db", []byte("twice as safe")); err != nil {
		log.Fatal(err)
	}
	if err := stack.Top.SyncFS(); err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"sfs1", "sfs2"} {
		got, err := springfs.ReadFile(stack.FS[name], "precious.db")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replica %s holds %q\n", name, got)
	}

	if err := stack.DropCaches(); err != nil {
		log.Fatal(err)
	}
	linkDown.Store(true)
	got, err := springfs.ReadFile(stack.Top, "precious.db")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read with a dead primary: %q\n", got)
	err = springfs.WriteFile(stack.Top, "during-outage", []byte("one copy for now"))
	fmt.Println("write during the outage:", err)
	// Output:
	// top of the stack: mirror
	// replica sfs1 holds "twice as safe"
	// replica sfs2 holds "twice as safe"
	// read with a dead primary: "twice as safe"
	// write during the outage: <nil>
}

// A remote stack is two Specs on one network (Figure 9): the home node
// exports its SFS through the DFS layer, and a client machine builds a DFS
// client of that address with its CFS on top. Stopping a node closes its
// server or client.
func ExampleNode_Join() {
	network := springfs.NewNetwork(springfs.LANInstant)
	home := springfs.NewNode("home")
	defer home.Stop()
	home.Join(network)
	exported, err := home.Build(springfs.Spec{
		Disks: []springfs.DiskSpec{{Name: "sfs0a"}},
		Layers: []springfs.LayerSpec{{Name: "dfs", Creator: "dfs_creator", On: []string{"sfs0a"},
			Config: map[string]string{"address": "home:dfs"}}},
	})
	if err != nil {
		log.Fatal(err)
	}

	client := springfs.NewNode("client")
	defer client.Stop()
	client.Join(network)
	remote, err := client.Build(springfs.Spec{Layers: []springfs.LayerSpec{
		{Name: "remote", Creator: "dfs_client_creator", Config: map[string]string{"address": "home:dfs"}},
		{Name: "cfs", Creator: "cfs_creator", On: []string{"remote"}},
	}})
	if err != nil {
		log.Fatal(err)
	}

	// A file written on the client machine, through its CFS...
	if err := springfs.WriteFile(remote.Top, "note", []byte("written remotely")); err != nil {
		log.Fatal(err)
	}
	if err := remote.Top.SyncFS(); err != nil {
		log.Fatal(err)
	}
	// ...is read on the home node, straight from its SFS.
	data, err := springfs.ReadFile(exported.FS["sfs0a"], "note")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %s\n", remote.Top.FSName(), data)
	// Output: cfs: written remotely
}

// Compression (Section 4.2.1, Figures 5 and 6): COMPFS stacked on SFS
// stores a compressed image in the underlying file, which stays
// accessible directly, and reuses the space that rewrites free.
func Example_compression() {
	node := springfs.NewNode("example")
	defer node.Stop()
	stack, err := node.Build(springfs.Spec{
		Disks:  []springfs.DiskSpec{{Name: "sfs0a", Blocks: 8192}},
		Layers: []springfs.LayerSpec{{Name: "compfs", Creator: "compfs_creator", On: []string{"sfs0a"}}},
	})
	if err != nil {
		log.Fatal(err)
	}
	corpus := strings.Repeat("the quick brown fox jumps over the lazy dog. ", 4000)
	if err := springfs.WriteFile(stack.Top, "corpus.txt", []byte(corpus)); err != nil {
		log.Fatal(err)
	}
	if err := stack.Top.SyncFS(); err != nil {
		log.Fatal(err)
	}
	lower, err := springfs.ReadFile(stack.FS["sfs0a"], "corpus.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("file_COMP holds %d bytes; file_SFS stores them in under a tenth: %v\n", len(corpus), len(lower) < len(corpus)/10)
	fmt.Println("file_SFS holds the plaintext:", strings.Contains(string(lower), "quick brown fox"))

	// A rewrite goes to fresh extents and frees the ones it replaces; once
	// the sync that commits it is done, the next rewrite reuses that space.
	f, err := stack.Top.Open("corpus.txt", springfs.Root)
	if err != nil {
		log.Fatal(err)
	}
	var stored []int
	for _, text := range []string{strings.ToUpper(corpus[:8192]), corpus[:8192], strings.ToUpper(corpus[:8192])} {
		if _, err := f.WriteAt([]byte(text), 0); err != nil {
			log.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			log.Fatal(err)
		}
		lower, err := springfs.ReadFile(stack.FS["sfs0a"], "corpus.txt")
		if err != nil {
			log.Fatal(err)
		}
		stored = append(stored, len(lower))
	}
	fmt.Println("three synced rewrites, file_SFS never grew:", stored[2] <= stored[0])
	head := make([]byte, 19)
	if _, err := f.ReadAt(head, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after the rewrite: %q\n", head)
	// Output:
	// file_COMP holds 180000 bytes; file_SFS stores them in under a tenth: true
	// file_SFS holds the plaintext: false
	// three synced rewrites, file_SFS never grew: true
	// after the rewrite: "THE QUICK BROWN FOX"
}

// Watchdog-style per-file interposition (Section 5 of the paper).
func ExampleWatch() {
	node := springfs.NewNode("example")
	defer node.Stop()
	stack, err := node.Build(springfs.Spec{Disks: []springfs.DiskSpec{{Name: "sfs0a"}}})
	if err != nil {
		log.Fatal(err)
	}
	f, err := stack.Top.Create("audited", springfs.Root)
	if err != nil {
		log.Fatal(err)
	}
	w := springfs.Watch(f, springfs.WatchdogHooks{
		Observe: func(op string) { fmt.Println("watchdog saw:", op) },
	})
	if _, err := w.WriteAt([]byte("x"), 0); err != nil {
		log.Fatal(err)
	}
	if _, err := w.Stat(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// watchdog saw: write
	// watchdog saw: stat
}

// A POSIX-style process over a stack (the Spring UNIX emulation adapter).
func ExampleNewProcess() {
	node := springfs.NewNode("example")
	defer node.Stop()
	stack, err := node.Build(springfs.Spec{Disks: []springfs.DiskSpec{{Name: "sfs0a"}}})
	if err != nil {
		log.Fatal(err)
	}
	p := springfs.NewProcess(stack.Top)
	if err := p.Mkdir("/etc"); err != nil {
		log.Fatal(err)
	}
	fd, err := p.Creat("/etc/motd")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := p.Write(fd, []byte("welcome to spring")); err != nil {
		log.Fatal(err)
	}
	st, err := p.Fstat(fd)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("motd:", st.Size, "bytes")
	// Output: motd: 17 bytes
}
