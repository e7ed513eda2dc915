// springsh is an interactive shell over a simulated Spring node: create
// file systems, compose stacks out of the registered creators, and poke at
// files through the naming interface — the workflow of Section 4.4 of the
// paper, driven by hand.
//
//	$ go run ./cmd/springsh
//	spring> newsfs sfs0a
//	spring> stack compfs_creator comp fs/sfs0a
//	spring> write comp/hello.txt hello stacked world
//	spring> cat comp/hello.txt
//	spring> stat comp/hello.txt
//	spring> ls comp
package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"springfs"
	"springfs/internal/fsys"
	"springfs/internal/interpose"
	"springfs/internal/naming"
	"springfs/internal/stats"
)

func main() {
	sh := &shell{springfs.NewNode("springsh"), map[string]*springfs.SFS{}}
	defer sh.Stop()
	fmt.Println("springsh — extensible file systems in Spring (type 'help')")

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("spring> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			if quit := sh.execute(line); quit {
				return
			}
		}
		fmt.Print("spring> ")
	}
}

// shell is one springsh session: the node, and the SFS instances newsfs
// assembled, by name, so fsck can reach the disk layer below each.
type shell struct {
	*springfs.Node
	sfs map[string]*springfs.SFS
}

func (sh *shell) execute(line string) (quit bool) {
	args := strings.Fields(line)
	cmd := args[0]
	fail := func(err error) {
		fmt.Println("error:", err)
	}
	switch cmd {
	case "help":
		fmt.Print(`commands:
  newsfs <name>                         create a disk + SFS, bound at fs/<name>
  stack <creator> <name> <under...>     create a layer and stack it (Section 4.4)
                                        creators: coherency_creator compfs_creator
                                        cryptfs_creator mirrorfs_creator snapfs_creator
                                        stripefs_creator identity_creator dfs_creator
                                        dfs_client_creator cfs_creator
  creators                              list registered creators
  ls [path]                             list a context
  write <path> <text...>                create/overwrite a file
  cat <path>                            print a file
  stat <path>                           show file attributes
  mkdir <path>                          create a directory
  rm <path>                             remove a binding
  sync <fs-path>                        flush a file system
  snapshot <fs-path> [name]             freeze the current state of a snapfs layer
                                        (no name: list its snapshots and clones)
  clone <fs-path> <snapshot> <name>     writable COW clone of a snapshot, bound at /<name>
  snapdiff <fs-path> <a> <b>            paths differing between two epochs
                                        (a, b: snapshot/clone names or "current")
  stripe <fs-path>                      show a striping layer's configuration
                                        and per-server health
  fsck <sfs-name> [-repair]             audit an SFS disk image (and repair it)
  watch <path> audit|readonly           interpose a watchdog on one file (Sec. 5)
  stats [reset]                         show (or zero) counters and latency histograms
  trace <command...>                    run a command with tracing on, print the span tree
  quit                                  exit
`)
	case "quit", "exit":
		return true
	case "newsfs":
		if len(args) != 2 {
			fmt.Println("usage: newsfs <name>")
			return
		}
		b, err := sh.Build(springfs.Spec{Disks: []springfs.DiskSpec{{Name: args[1]}}})
		if err != nil {
			fail(err)
			return
		}
		sh.sfs[args[1]] = b.Disks[args[1]]
		fmt.Printf("sfs %q assembled (coherency layer on disk layer), bound at fs/%s\n", args[1], args[1])
	case "stack":
		if len(args) < 4 {
			fmt.Println("usage: stack <creator> <name> <under-path...> [key=val...]")
			return
		}
		creator, name := args[1], args[2]
		config := map[string]string{"name": name}
		var under []springfs.StackableFS
		for _, a := range args[3:] {
			if k, v, ok := strings.Cut(a, "="); ok {
				config[k] = v
				continue
			}
			obj, err := sh.Root().Resolve(a, springfs.Root)
			if err != nil {
				fail(err)
				return
			}
			fs, ok := obj.(springfs.StackableFS)
			if !ok {
				fmt.Printf("error: %s is not a stackable file system\n", a)
				return
			}
			under = append(under, fs)
		}
		if creator == "cryptfs_creator" && config["passphrase"] == "" {
			config["passphrase"] = "springsh-default"
		}
		if _, err := sh.ConfigureStack(creator, config, under, name); err != nil {
			fail(err)
			return
		}
		fmt.Printf("layer %q stacked and bound at /%s\n", name, name)
	case "creators":
		obj, err := sh.Root().Resolve("fs_creators", springfs.Root)
		if err != nil {
			fail(err)
			return
		}
		bindings, err := obj.(springfs.Context).List(springfs.Root)
		if err != nil {
			fail(err)
			return
		}
		for _, b := range bindings {
			fmt.Println(" ", b.Name)
		}
	case "ls":
		path := ""
		if len(args) > 1 {
			path = args[1]
		}
		var ctx springfs.Context = sh.Root()
		if path != "" {
			obj, err := sh.Root().Resolve(path, springfs.Root)
			if err != nil {
				fail(err)
				return
			}
			c, ok := obj.(springfs.Context)
			if !ok {
				fmt.Printf("error: %s is not a context\n", path)
				return
			}
			ctx = c
		}
		bindings, err := ctx.List(springfs.Root)
		if err != nil {
			fail(err)
			return
		}
		for _, b := range bindings {
			kind := "file"
			switch b.Object.(type) {
			case springfs.StackableFS:
				kind = "fs"
			case springfs.Context:
				kind = "dir"
			case springfs.File:
				kind = "file"
			default:
				kind = "obj"
			}
			fmt.Printf("  %-24s %s\n", b.Name, kind)
		}
	case "write":
		if len(args) < 3 {
			fmt.Println("usage: write <path> <text...>")
			return
		}
		dir, name := splitPath(args[1])
		fs, err := resolveFS(sh.Node, dir)
		if err != nil {
			fail(err)
			return
		}
		if err := springfs.WriteFile(fs, name, []byte(strings.Join(args[2:], " "))); err != nil {
			fail(err)
			return
		}
		fmt.Println("ok")
	case "cat":
		if len(args) != 2 {
			fmt.Println("usage: cat <path>")
			return
		}
		dir, name := splitPath(args[1])
		fs, err := resolveFS(sh.Node, dir)
		if err != nil {
			fail(err)
			return
		}
		data, err := springfs.ReadFile(fs, name)
		if err != nil {
			fail(err)
			return
		}
		fmt.Println(string(data))
	case "stat":
		if len(args) != 2 {
			fmt.Println("usage: stat <path>")
			return
		}
		obj, err := sh.Root().Resolve(args[1], springfs.Root)
		if err != nil {
			fail(err)
			return
		}
		f, ok := obj.(springfs.File)
		if !ok {
			fmt.Printf("error: %s is not a file\n", args[1])
			return
		}
		attrs, err := f.Stat()
		if err != nil {
			fail(err)
			return
		}
		fmt.Printf("  length: %d\n  atime:  %s\n  mtime:  %s\n",
			attrs.Length, attrs.AccessTime, attrs.ModifyTime)
	case "mkdir":
		if len(args) != 2 {
			fmt.Println("usage: mkdir <path>")
			return
		}
		dir, name := splitPath(args[1])
		fs, err := resolveFS(sh.Node, dir)
		if err != nil {
			fail(err)
			return
		}
		if _, err := fs.CreateContext(name, springfs.Root); err != nil {
			fail(err)
			return
		}
		fmt.Println("ok")
	case "rm":
		if len(args) != 2 {
			fmt.Println("usage: rm <path>")
			return
		}
		dir, name := splitPath(args[1])
		fs, err := resolveFS(sh.Node, dir)
		if err != nil {
			fail(err)
			return
		}
		if err := fs.Remove(name, springfs.Root); err != nil {
			fail(err)
			return
		}
		fmt.Println("ok")
	case "watch":
		if len(args) != 3 || (args[2] != "audit" && args[2] != "readonly") {
			fmt.Println("usage: watch <path> audit|readonly")
			return
		}
		dir, name := splitPath(args[1])
		if dir == "" {
			fmt.Println("error: watch needs a path inside a file system")
			return
		}
		parentPath, ctxName := splitParent(dir)
		var parent *naming.BasicContext
		if parentPath == "" {
			parent = sh.Root()
		} else {
			obj, err := sh.Root().Resolve(parentPath, springfs.Root)
			if err != nil {
				fail(err)
				return
			}
			bc, ok := obj.(*naming.BasicContext)
			if !ok {
				fmt.Println("error: parent context does not support interposition")
				return
			}
			parent = bc
		}
		var hooks interpose.Hooks
		switch args[2] {
		case "audit":
			hooks.Observe = func(op string) { fmt.Printf("[watchdog] %s %s\n", op, args[1]) }
		case "readonly":
			hooks.WriteAt = func(fsys.File, []byte, int64) (int, error) {
				return 0, fmt.Errorf("watchdog: %s is read-only", args[1])
			}
			hooks.SetLength = func(fsys.File, int64) error {
				return fmt.Errorf("watchdog: %s is read-only", args[1])
			}
		}
		if _, err := interpose.WatchName(parent, ctxName, name, hooks, springfs.Root); err != nil {
			fail(err)
			return
		}
		fmt.Printf("watchdog (%s) interposed on %s\n", args[2], args[1])
	case "stats":
		if len(args) > 1 && args[1] == "reset" {
			stats.Default.ResetAll()
			fmt.Println("ok")
			return
		}
		out := stats.Default.String()
		if out == "" {
			fmt.Println("(no stats recorded)")
			return
		}
		fmt.Print(out)
	case "trace":
		if len(args) < 2 {
			fmt.Println("usage: trace <command...>")
			return
		}
		spans := stats.Trace.Capture(func() {
			quit = sh.execute(strings.Join(args[1:], " "))
		})
		if n := stats.Trace.Dropped(); n > 0 {
			fmt.Printf("(%d spans dropped by ring wraparound)\n", n)
		}
		fmt.Print(stats.RenderTrace(spans))
		return quit
	case "fsck":
		repair := false
		rest := args[1:]
		if len(rest) > 0 && rest[len(rest)-1] == "-repair" {
			repair = true
			rest = rest[:len(rest)-1]
		}
		if len(rest) != 1 {
			fmt.Println("usage: fsck <sfs-name> [-repair]")
			return
		}
		sfs := sh.sfs[rest[0]]
		if sfs == nil {
			fmt.Printf("error: no sfs named %q (see newsfs)\n", rest[0])
			return
		}
		report, err := sfs.Disk.Fsck(repair)
		if err != nil {
			fail(err)
			return
		}
		fmt.Print(report)
	case "snapshot":
		if len(args) < 2 || len(args) > 3 {
			fmt.Println("usage: snapshot <fs-path> [name]")
			return
		}
		snap, err := resolveSnapFS(sh.Node, args[1])
		if err != nil {
			fail(err)
			return
		}
		if len(args) == 2 {
			snaps, err := snap.Snapshots()
			if err != nil {
				fail(err)
				return
			}
			clones, err := snap.Clones()
			if err != nil {
				fail(err)
				return
			}
			for _, s := range snaps {
				fmt.Printf("  snapshot  %s\n", s)
			}
			for _, c := range clones {
				fmt.Printf("  clone     %s\n", c)
			}
			if len(snaps)+len(clones) == 0 {
				fmt.Println("  (none)")
			}
			return
		}
		if err := snap.Snapshot(args[2]); err != nil {
			fail(err)
			return
		}
		fmt.Printf("snapshot %q frozen\n", args[2])
	case "clone":
		if len(args) != 4 {
			fmt.Println("usage: clone <fs-path> <snapshot> <name>")
			return
		}
		snap, err := resolveSnapFS(sh.Node, args[1])
		if err != nil {
			fail(err)
			return
		}
		view, err := snap.Clone(args[2], args[3])
		if err != nil {
			fail(err)
			return
		}
		if err := sh.Root().Bind(args[3], view, springfs.Root); err != nil {
			fail(err)
			return
		}
		fmt.Printf("clone %q of snapshot %q bound at /%s\n", args[3], args[2], args[3])
	case "snapdiff":
		if len(args) != 4 {
			fmt.Println("usage: snapdiff <fs-path> <a> <b>")
			return
		}
		snap, err := resolveSnapFS(sh.Node, args[1])
		if err != nil {
			fail(err)
			return
		}
		entries, err := snap.Diff(args[2], args[3])
		if err != nil {
			fail(err)
			return
		}
		if len(entries) == 0 {
			fmt.Println("  (no differences)")
			return
		}
		for _, e := range entries {
			fmt.Printf("  %-12s %s\n", e.Status, e.Path)
		}
	case "stripe":
		if len(args) != 2 {
			fmt.Println("usage: stripe <fs-path>")
			return
		}
		obj, err := sh.Root().Resolve(args[1], springfs.Root)
		if err != nil {
			fail(err)
			return
		}
		striped, ok := obj.(interface{ StripeStatus() springfs.StripeStatus })
		if !ok {
			fmt.Printf("error: %s is not a striping layer (stack stripefs_creator on it)\n", args[1])
			return
		}
		st := striped.StripeStatus()
		fmt.Printf("stripe size %d KiB, metadata on %s\n", st.StripeSize>>10, st.Meta)
		for i, srv := range st.Servers {
			health := "healthy"
			if !srv.Healthy {
				health = "DEGRADED"
			}
			fmt.Printf("  server %d  %-12s  %s\n", i, srv.Name, health)
		}
	case "sync":
		if len(args) != 2 {
			fmt.Println("usage: sync <fs-path>")
			return
		}
		fs, err := resolveFS(sh.Node, args[1])
		if err != nil {
			fail(err)
			return
		}
		if err := fs.SyncFS(); err != nil {
			fail(err)
			return
		}
		fmt.Println("ok")
	default:
		fmt.Printf("unknown command %q (try 'help')\n", cmd)
	}
	return false
}

// splitParent splits a context path into its parent path and final
// component ("fs/sfs0a" -> ("fs", "sfs0a"); "comp" -> ("", "comp")).
func splitParent(path string) (parent, last string) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) == 1 {
		return "", parts[0]
	}
	return strings.Join(parts[:len(parts)-1], "/"), parts[len(parts)-1]
}

// splitPath splits "fs/sfs0a/dir/file" into the file system prefix and the
// in-fs path. The first one or two components name the file system.
func splitPath(path string) (fsPath, rest string) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if parts[0] == "fs" && len(parts) > 2 {
		return parts[0] + "/" + parts[1], strings.Join(parts[2:], "/")
	}
	if len(parts) > 1 {
		return parts[0], strings.Join(parts[1:], "/")
	}
	return "", path
}

// snapshotter is the snapshot/clone surface of the snapfs layer; asserting
// the interface (rather than the concrete type) keeps the verbs working on
// whatever object the name space hands back.
type snapshotter interface {
	Snapshot(name string) error
	Clone(snapName, cloneName string) (*springfs.SnapView, error)
	Diff(a, b string) ([]springfs.SnapDiffEntry, error)
	Snapshots() ([]string, error)
	Clones() ([]string, error)
}

// resolveSnapFS resolves a path to a snapshot-capable file system.
func resolveSnapFS(node *springfs.Node, path string) (snapshotter, error) {
	obj, err := node.Root().Resolve(path, springfs.Root)
	if err != nil {
		return nil, err
	}
	s, ok := obj.(snapshotter)
	if !ok {
		return nil, fmt.Errorf("%s is not a snapshot-capable file system (stack snapfs_creator on it)", path)
	}
	return s, nil
}

// resolveFS resolves a path to a stackable file system.
func resolveFS(node *springfs.Node, path string) (springfs.StackableFS, error) {
	obj, err := node.Root().Resolve(path, springfs.Root)
	if err != nil {
		return nil, err
	}
	fs, ok := obj.(springfs.StackableFS)
	if !ok {
		return nil, fmt.Errorf("%s is not a stackable file system", path)
	}
	return fs, nil
}
