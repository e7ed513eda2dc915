package blockdev

// FaultDevice injects errors into any Device, for failure tests. Before an
// I/O passes down it asks fault about each block, in order, and the first
// error it gets back fails the I/O: the blocks of a run before that block
// still land, the rest do not. fault sees every block it is asked about,
// the failing one included, so one that keeps a budget counts them all.
// Flush, Close and NumBlocks pass straight down; a run below a device that
// moves no runs moves block by block.
type FaultDevice struct {
	Device
	fault func(bn int64, write bool) error
}

var _ RunReader = (*FaultDevice)(nil)

// NewFault wraps under with fault.
func NewFault(under Device, fault func(bn int64, write bool) error) *FaultDevice {
	return &FaultDevice{Device: under, fault: fault}
}

// ReadBlock implements Device.
func (d *FaultDevice) ReadBlock(bn int64, buf []byte) error {
	return d.pass(bn, buf, false, d.Device.ReadBlock)
}

// WriteBlock implements Device.
func (d *FaultDevice) WriteBlock(bn int64, buf []byte) error {
	return d.pass(bn, buf, true, d.Device.WriteBlock)
}

// ReadRun implements RunReader.
func (d *FaultDevice) ReadRun(bn int64, buf []byte) error {
	if r, ok := d.Device.(RunReader); ok {
		return d.pass(bn, buf, false, r.ReadRun)
	}
	return d.pass(bn, buf, false, func(bn int64, buf []byte) error { return eachBlock(bn, buf, d.Device.ReadBlock) })
}

// WriteRun implements RunReader.
func (d *FaultDevice) WriteRun(bn int64, buf []byte) error {
	if r, ok := d.Device.(RunReader); ok {
		return d.pass(bn, buf, true, r.WriteRun)
	}
	return d.pass(bn, buf, true, func(bn int64, buf []byte) error { return eachBlock(bn, buf, d.Device.WriteBlock) })
}

// pass asks fault about the blocks of buf and moves those before the first
// that fails.
func (d *FaultDevice) pass(bn int64, buf []byte, write bool, move func(int64, []byte) error) error {
	for i := range int64(len(buf) / BlockSize) {
		if err := d.fault(bn+i, write); err != nil {
			if i > 0 {
				if err := move(bn, buf[:i*BlockSize]); err != nil {
					return err
				}
			}
			return err
		}
	}
	return move(bn, buf)
}
