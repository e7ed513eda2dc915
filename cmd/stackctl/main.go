// stackctl builds file system stacks from a declarative configuration —
// the "proper extensible file system configuration tools" the paper lists
// as work in progress in Section 8.
//
// A configuration is a springfs.Spec — disks, and layers each created
// through the registered stackable_fs_creator for its type and stacked on
// named underlying file systems — plus which of them to export into the
// name space:
//
//	{
//	  "disks":  [{"name": "sfs0a", "blocks": 4096},
//	             {"name": "sfs0b", "blocks": 4096}],
//	  "layers": [{"name": "crypt", "creator": "cryptfs_creator",
//	              "on": ["sfs0a"], "config": {"passphrase": "s3cret"}},
//	             {"name": "comp", "creator": "compfs_creator",
//	              "on": ["crypt"]},
//	             {"name": "mirror", "creator": "mirrorfs_creator",
//	              "on": ["comp", "sfs0b"]}],
//	  "export": ["mirror"]
//	}
//
// A disk with a "path" lives in that host file, formatted only when the
// file is new or empty; `stackctl fsck` audits such an image.
//
// Usage:
//
//	stackctl -example             # print the example configuration
//	stackctl -config stack.json   # build the stack and self-test it
//	stackctl fsck [-repair] img   # audit (and repair) a disk image
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"springfs"
	"springfs/internal/blockdev"
	"springfs/internal/disklayer"
)

const example = `{
  "disks":  [{"name": "sfs0a", "blocks": 4096},
             {"name": "sfs0b", "blocks": 4096}],
  "layers": [{"name": "crypt", "creator": "cryptfs_creator",
              "on": ["sfs0a"], "config": {"passphrase": "s3cret"}},
             {"name": "comp", "creator": "compfs_creator",
              "on": ["crypt"]},
             {"name": "mirror", "creator": "mirrorfs_creator",
              "on": ["comp", "sfs0b"]}],
  "export": ["mirror"]
}
`

func main() {
	if len(os.Args) > 1 && os.Args[1] == "fsck" {
		os.Exit(runFsck(os.Args[2:], os.Stdout))
	}
	var (
		configPath  = flag.String("config", "", "stack configuration file (JSON)")
		exampleFlag = flag.Bool("example", false, "print an example configuration")
	)
	flag.Parse()
	if *exampleFlag {
		fmt.Print(example)
		return
	}
	if *configPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	raw, err := os.ReadFile(*configPath)
	if err != nil {
		fatal(err)
	}
	spec, export, err := parse(raw)
	if err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *configPath, err))
	}
	if err := build(spec, export); err != nil {
		fatal(err)
	}
}

// parse decodes a configuration: a springfs.Spec plus the names to export.
func parse(raw []byte) (springfs.Spec, []string, error) {
	var cfg struct {
		springfs.Spec
		Export []string `json:"export"`
	}
	err := json.Unmarshal(raw, &cfg)
	return cfg.Spec, cfg.Export, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stackctl:", err)
	os.Exit(1)
}

// runFsck implements `stackctl fsck [-repair] <image>`: the offline audit
// of a disk-layer image file. Exit status: 0 clean, 1 inconsistencies
// found (or repair failed to converge), 2 usage or I/O error.
func runFsck(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("fsck", flag.ContinueOnError)
	fs.SetOutput(out)
	repair := fs.Bool("repair", false, "repair the inconsistencies found")
	fs.Usage = func() {
		fmt.Fprintln(out, "usage: stackctl fsck [-repair] <image>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	path := fs.Arg(0)
	info, err := os.Stat(path)
	if err != nil {
		fmt.Fprintln(out, "stackctl: fsck:", err)
		return 2
	}
	nblocks := info.Size() / blockdev.BlockSize
	dev, err := blockdev.OpenFile(path, nblocks, blockdev.ProfileNone)
	if err != nil {
		fmt.Fprintln(out, "stackctl: fsck:", err)
		return 2
	}
	defer dev.Close()
	report, err := disklayer.Check(dev, *repair)
	if err != nil {
		fmt.Fprintln(out, "stackctl: fsck:", err)
		return 2
	}
	fmt.Fprintf(out, "%s: %s", path, report)
	if !report.Clean {
		return 1
	}
	return 0
}

func build(spec springfs.Spec, export []string) error {
	node := springfs.NewNode("stackctl")
	defer node.Stop()

	stack, err := node.Build(spec)
	if err != nil {
		return err
	}
	fmt.Printf("built %d disks (SFS: coherency layer on disk layer) and %d layers, top %s\n",
		len(spec.Disks), len(spec.Layers), stack.Top.FSName())
	for _, e := range export {
		fs, ok := stack.FS[e]
		if !ok {
			return fmt.Errorf("export: unknown layer %q", e)
		}
		if err := node.Root().Bind(e, fs, springfs.Root); err != nil {
			return fmt.Errorf("export %s: %w", e, err)
		}
		fmt.Printf("exported /%s\n", e)
	}

	// Self-test: write and read a file through every exported layer.
	for _, e := range export {
		fs := stack.FS[e]
		msg := []byte("stackctl self-test through " + e)
		if err := springfs.WriteFile(fs, "stackctl-selftest", msg); err != nil {
			return fmt.Errorf("self-test write via %s: %w", e, err)
		}
		got, err := springfs.ReadFile(fs, "stackctl-selftest")
		if err != nil {
			return fmt.Errorf("self-test read via %s: %w", e, err)
		}
		if string(got) != string(msg) {
			return fmt.Errorf("self-test via %s: read %q", e, got)
		}
		if err := fs.SyncFS(); err != nil {
			return fmt.Errorf("self-test sync via %s: %w", e, err)
		}
		fmt.Printf("self-test via /%s: ok (%d bytes round-tripped)\n", e, len(msg))
	}
	return nil
}
