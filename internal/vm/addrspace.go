package vm

import (
	"fmt"
	"sort"
	"sync"
)

// AddressSpace represents the virtual address space of a Spring domain.
// Address space objects are implemented by the VMM. Memory objects are
// mapped into regions of the space; reads and writes through the space are
// routed to the mapping covering the address.
type AddressSpace struct {
	vmm *VMM

	mu      sync.Mutex
	regions []*Region
	nextVA  int64
}

// Region is one mapped extent of an address space.
type Region struct {
	// Base is the starting virtual address of the region.
	Base int64
	// Length is the mapped length in bytes (page-aligned).
	Length int64
	// M is the mapping backing the region.
	M *Mapping
}

// NewAddressSpace creates an address space managed by vmm.
func NewAddressSpace(vmm *VMM) *AddressSpace {
	return &AddressSpace{vmm: vmm, nextVA: PageSize} // keep VA 0 unmapped
}

// VMM returns the managing VMM.
func (as *AddressSpace) VMM() *VMM { return as.vmm }

// Map maps mobj into the space with the given access and returns the
// region. Length is rounded up to a page multiple; a zero length maps the
// memory object's current length.
func (as *AddressSpace) Map(mobj MemoryObject, access Rights, length int64) (*Region, error) {
	if length == 0 {
		l, err := mobj.GetLength()
		if err != nil {
			return nil, err
		}
		length = l
	}
	length = RoundUp(length)
	if length == 0 {
		length = PageSize
	}
	m, err := as.vmm.Map(mobj, access)
	if err != nil {
		return nil, err
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	r := &Region{Base: as.nextVA, Length: length, M: m}
	as.nextVA += length + PageSize // guard page between regions
	as.regions = append(as.regions, r)
	sort.Slice(as.regions, func(i, j int) bool { return as.regions[i].Base < as.regions[j].Base })
	return r, nil
}

// Unmap removes the region from the space.
func (as *AddressSpace) Unmap(r *Region) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for i, reg := range as.regions {
		if reg == r {
			as.regions = append(as.regions[:i], as.regions[i+1:]...)
			r.M.Unmap()
			return nil
		}
	}
	return fmt.Errorf("vm: region not mapped in this address space")
}

// find returns the region covering va.
func (as *AddressSpace) find(va int64) (*Region, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	i := sort.Search(len(as.regions), func(i int) bool {
		return as.regions[i].Base+as.regions[i].Length > va
	})
	if i < len(as.regions) && as.regions[i].Base <= va {
		return as.regions[i], nil
	}
	return nil, fmt.Errorf("vm: fault at unmapped address %#x", va)
}

// ReadVA reads len(p) bytes at virtual address va. Access crossing the end
// of a region fails like a segmentation violation would.
func (as *AddressSpace) ReadVA(p []byte, va int64) (int, error) {
	r, err := as.find(va)
	if err != nil {
		return 0, err
	}
	if va+int64(len(p)) > r.Base+r.Length {
		return 0, fmt.Errorf("vm: access beyond region end at %#x", r.Base+r.Length)
	}
	return r.M.ReadAt(p, va-r.Base)
}

// WriteVA writes p at virtual address va.
func (as *AddressSpace) WriteVA(p []byte, va int64) (int, error) {
	r, err := as.find(va)
	if err != nil {
		return 0, err
	}
	if va+int64(len(p)) > r.Base+r.Length {
		return 0, fmt.Errorf("vm: access beyond region end at %#x", r.Base+r.Length)
	}
	return r.M.WriteAt(p, va-r.Base)
}
