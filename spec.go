package springfs

import (
	"fmt"
	"os"

	"springfs/internal/blockdev"
	"springfs/internal/coherency"
	"springfs/internal/disklayer"
	"springfs/internal/fsys"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// Spec describes a stack as data, the way Section 4.4 configures one: each
// disk becomes an SFS, each layer is created by its registered
// stackable_fs_creator and stacked on the file systems its On names, in
// order. It is also the JSON configuration stackctl reads.
type Spec struct {
	Disks  []DiskSpec  `json:"disks"`
	Layers []LayerSpec `json:"layers"`
}

// DiskSpec is one SFS, a coherency layer on a disk layer. Its device is
// Device, already formatted; else the host file at Path, formatted only if
// new or empty, so an existing image is mounted and never formatted over;
// else a fresh RAM disk. The file stays open until its SFS's
// Disk.Device() is closed. Blocks sizes a new device (0 means 4096 blocks
// of 4 KiB). SeparateDomains serves the coherency layer from its own domain:
// the paper's production configuration (Section 6.2).
type DiskSpec struct {
	Name            string          `json:"name"`
	Blocks          int64           `json:"blocks"`
	Path            string          `json:"path,omitempty"`
	SeparateDomains bool            `json:"separate_domains,omitempty"`
	Device          blockdev.Device `json:"-"`
}

// LayerSpec is one layer: Creator is a name under /fs_creators, On the
// disks and layers it stacks on, and Config the creator's settings (Name
// is passed as "name").
type LayerSpec struct {
	Name    string            `json:"name"`
	Creator string            `json:"creator"`
	On      []string          `json:"on"`
	Config  map[string]string `json:"config,omitempty"`
}

// Built is a stack Build assembled.
type Built struct {
	// Top is the last layer, or the last disk of a spec with no layers.
	Top StackableFS
	// FS holds every disk (its SFS's exported coherency layer) and every
	// layer, by its spec name.
	FS map[string]StackableFS
	// Disks holds every disk's SFS, by its spec name.
	Disks map[string]*SFS

	vmm  *vm.VMM
	cohs []*coherency.CohFS // in build order: none is below one built after it
}

// SFS bundles the two layers of a Spring storage file system (Figure 10):
// a coherency layer stacked on a disk layer, with all files exported via
// the coherency layer. Build makes one per DiskSpec.
type SFS struct {
	// Device is the RAM disk Build made; nil for a Path or a Device.
	Device *blockdev.MemDevice
	// Disk is the base (non-coherent) disk layer.
	Disk *disklayer.DiskFS
	// Coherency is the exported coherent layer.
	Coherency *coherency.CohFS
	// DiskDomain and CohDomain serve the two layers.
	DiskDomain, CohDomain *spring.Domain
}

// DropCaches writes every modified page and block back and empties the
// node's VMM and then every coherency layer of the stack, top down, so the
// next access is cold.
func (b *Built) DropCaches() error {
	if err := b.vmm.DropCaches(); err != nil {
		return err
	}
	for i := len(b.cohs) - 1; i >= 0; i-- {
		if err := b.cohs[i].DropDataCaches(); err != nil {
			return err
		}
	}
	return nil
}

// Build assembles spec on the node. Disks are bound at /fs/<name>; layers
// are not bound anywhere.
func (n *Node) Build(spec Spec) (*Built, error) {
	b := &Built{FS: make(map[string]StackableFS), Disks: make(map[string]*SFS), vmm: n.vmm}
	for _, d := range spec.Disks {
		sfs, err := n.buildDisk(d)
		if err != nil {
			return nil, fmt.Errorf("disk %s: %w", d.Name, err)
		}
		b.Disks[d.Name] = sfs
		b.FS[d.Name] = sfs.Coherency
		b.cohs = append(b.cohs, sfs.Coherency)
		b.Top = sfs.Coherency
	}
	for _, l := range spec.Layers {
		if _, dup := b.FS[l.Name]; dup {
			return nil, fmt.Errorf("layer %s: name already in use", l.Name)
		}
		under := make([]StackableFS, len(l.On))
		for i, u := range l.On {
			fs, ok := b.FS[u]
			if !ok {
				return nil, fmt.Errorf("layer %s: unknown underlying file system %q", l.Name, u)
			}
			under[i] = fs
		}
		config := map[string]string{"name": l.Name}
		for k, v := range l.Config {
			config[k] = v
		}
		layer, err := n.ConfigureStack(l.Creator, config, under, "")
		if err != nil {
			return nil, fmt.Errorf("layer %s (%s): %w", l.Name, l.Creator, err)
		}
		b.FS[l.Name] = layer
		if c, ok := layer.(*coherency.CohFS); ok {
			b.cohs = append(b.cohs, c)
		}
		b.Top = layer
	}
	if b.Top == nil {
		return nil, fmt.Errorf("empty spec")
	}
	return b, nil
}

// buildDisk formats d's device if it is new, mounts the disk layer on it
// in a domain of its own, stacks the coherency layer on that and binds it
// at /fs/<name>.
func (n *Node) buildDisk(d DiskSpec) (*SFS, error) {
	dev, fresh, err := openDevice(d)
	if err != nil {
		return nil, err
	}
	if fresh {
		err = disklayer.Mkfs(dev, disklayer.MkfsOptions{})
	}
	s := &SFS{DiskDomain: n.NewDomain(d.Name + "-disk")}
	if err == nil {
		s.Disk, err = disklayer.Mount(dev, s.DiskDomain, n.vmm, d.Name+"-disk")
	}
	if err != nil {
		if d.Device == nil {
			dev.Close()
		}
		return nil, err
	}
	if d.Device == nil {
		s.Device, _ = dev.(*blockdev.MemDevice)
	}
	s.CohDomain = s.DiskDomain
	if d.SeparateDomains {
		s.CohDomain = n.NewDomain(d.Name + "-coherency")
	}
	s.Coherency = coherency.New(s.CohDomain, n.vmm, d.Name)
	if err := s.Coherency.StackOn(fsys.WrapStackable(spring.Connect(s.CohDomain, s.DiskDomain), s.Disk)); err != nil {
		return nil, err
	}
	if err := n.root.Bind("fs/"+d.Name, s.Coherency, Root); err != nil {
		return nil, err
	}
	return s, nil
}

// openDevice returns d's device, and whether it is new and needs
// formatting: a RAM disk, or a host file that was new or empty.
func openDevice(d DiskSpec) (blockdev.Device, bool, error) {
	blocks := d.Blocks
	if blocks == 0 {
		blocks = 4096
	}
	switch {
	case d.Device != nil:
		if d.Blocks != 0 || d.Path != "" {
			return nil, false, fmt.Errorf("a device cannot be given blocks or a path")
		}
		return d.Device, false, nil
	case d.Path != "":
		if info, err := os.Stat(d.Path); err == nil && info.Size() > 0 {
			blocks = 0 // an existing image keeps its own size
		}
		dev, err := blockdev.OpenFile(d.Path, blocks, blockdev.ProfileNone)
		return dev, blocks != 0, err
	}
	return blockdev.NewMem(blocks, blockdev.ProfileNone), true, nil
}
