package fsys

import (
	"fmt"
	"strings"

	"springfs/internal/naming"
)

// CommitFile replaces the file at final with data crash-atomically: the
// bytes go to tmp, are synced, and tmp is renamed over final. Below, the
// rename is one journaled transaction whose commit barrier also covers the
// just-synced temporary, so a power cut leaves final holding exactly the
// old or the new bytes, and at worst a stray tmp for SweepPrefix. On an
// error tmp is removed and final is untouched.
func CommitFile(fs FS, tmp, final string, data []byte, cred naming.Credentials) error {
	f, err := fs.Create(tmp, cred)
	if err != nil {
		return fmt.Errorf("commit %s: %w", final, err)
	}
	if _, err = f.WriteAt(data, 0); err == nil {
		// A temporary that outlived a crash may be longer than this commit.
		var l int64
		if l, err = f.GetLength(); err == nil && l > int64(len(data)) {
			err = f.SetLength(int64(len(data)))
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = fs.Rename(tmp, final, cred)
	}
	if err != nil {
		_ = fs.Remove(tmp, cred) // best effort; the sweep collects what stays
		return fmt.Errorf("commit %s: %w", final, err)
	}
	return nil
}

// SweepPrefix removes the debris of crashed commits from the root of fs:
// every binding whose name starts with prefix, except those keep (if not
// nil) vouches for. It returns how many it removed; a failed listing is
// returned, a failed removal just leaves its debris for the next sweep.
func SweepPrefix(fs StackableFS, prefix string, keep func(name string) bool, cred naming.Credentials) (int, error) {
	bindings, err := fs.List(cred)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, b := range bindings {
		if strings.HasPrefix(b.Name, prefix) && (keep == nil || !keep(b.Name)) && fs.Remove(b.Name, cred) == nil {
			n++
		}
	}
	return n, nil
}
