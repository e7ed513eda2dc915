package springfs

import (
	"fmt"

	"springfs/internal/coherency"
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

// DiskSpec is one SFS on a fresh simulated disk of Blocks 4 KiB blocks
// (0 means NewSFS's default).
type DiskSpec struct {
	Name   string `json:"name"`
	Blocks int64  `json:"blocks"`
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

	vmm  *vm.VMM
	cohs []*coherency.CohFS // in build order: none is below one built after it
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

// Build assembles spec on the node. Disks are bound at /fs/<name> as
// NewSFS binds them; layers are not bound anywhere.
func (n *Node) Build(spec Spec) (*Built, error) {
	b := &Built{FS: make(map[string]StackableFS), vmm: n.vmm}
	for _, d := range spec.Disks {
		sfs, err := n.NewSFS(d.Name, DiskOptions{Blocks: d.Blocks})
		if err != nil {
			return nil, fmt.Errorf("disk %s: %w", d.Name, err)
		}
		b.FS[d.Name] = sfs.FS()
		b.cohs = append(b.cohs, sfs.Coherency)
		b.Top = b.FS[d.Name]
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
