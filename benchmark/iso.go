package main

import (
	"fmt"
	"time"

	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// isoBatches × isoBatch direct calls of one public function make one
// isolated probe. Like every CPU-bound number here it is reduced to the
// quiet end of its batch means (see workload.estimate).
const (
	isoBatches = 200
	isoBatch   = 100
)

func isoProbe(fn func() error) (float64, error) {
	samples := make([]float64, 0, isoBatches)
	for i := 0; i < isoBatches; i++ {
		t0 := time.Now()
		for j := 0; j < isoBatch; j++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		samples = append(samples, us(time.Since(t0))/isoBatch)
	}
	return quantile(samples, quietShare), nil
}

// isolated times single public functions directly, on a small sfs-2dom
// stack with no modelled delay: one name resolution that hits, one null
// cross-domain call, one 4 KiB read from a resident page, and one write
// that has to revoke the page from another cache manager first.
func isolated(m map[string]float64) error {
	st, err := (&builder{blocks: 2048, inodes: 64}).build(shapeSFS2)
	if err != nil {
		return err
	}
	defer st.close()
	pl := newPlan(newGen(1), sizes{files: 1, fileBytes: 16 << 10}, 1)
	if err := pl.populate(st); err != nil {
		return err
	}
	path := pl.small[0].path
	buf := make([]byte, blockSize)

	if m["naming.resolve_hit_us"], err = isoProbe(func() error {
		_, err := st.top.Resolve(path, naming.Root)
		return err
	}); err != nil {
		return fmt.Errorf("iso resolve: %w", err)
	}

	node := st.nodes[0]
	ch := spring.Connect(spring.NewDomain(node, "iso-client"), spring.NewDomain(node, "iso-server"))
	m["spring.null_call_us"], _ = isoProbe(func() error {
		ch.Call(func() {})
		return nil
	})

	file, err := st.top.Open(path, naming.Root)
	if err != nil {
		return fmt.Errorf("iso open: %w", err)
	}
	writer, err := st.vmms[0].Map(file, vm.RightsWrite)
	if err != nil {
		return fmt.Errorf("iso map: %w", err)
	}
	if _, err := writer.ReadAt(buf, 0); err != nil {
		return fmt.Errorf("iso warm: %w", err)
	}
	if m["vm.hit_us"], err = isoProbe(func() error {
		_, err := writer.ReadAt(buf, 0)
		return err
	}); err != nil {
		return fmt.Errorf("iso vm hit: %w", err)
	}

	// A second cache manager on the same node holds the page for reading;
	// every write through the first has to take it away again.
	other := vm.New(spring.NewDomain(node, "iso-vmm"), "iso-vmm")
	reader, err := other.Map(file, vm.RightsRead)
	if err != nil {
		return fmt.Errorf("iso map reader: %w", err)
	}
	samples := make([]float64, 0, isoBatches)
	for i := 0; i < isoBatches; i++ {
		if _, err := reader.ReadAt(buf, 0); err != nil {
			return fmt.Errorf("iso revoke (read): %w", err)
		}
		t0 := time.Now()
		if _, err := writer.WriteAt(buf, 0); err != nil {
			return fmt.Errorf("iso revoke (write): %w", err)
		}
		samples = append(samples, us(time.Since(t0)))
	}
	m["coherency.revoke_us"] = quantile(samples, quietShare)
	return nil
}
