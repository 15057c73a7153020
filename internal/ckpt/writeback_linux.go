//go:build !arm

package ckpt

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writeback of the
// range's dirty pages without waiting for it.
const syncFileRangeWrite = 2

// startWriteback asks the kernel to begin writing f's [off, off+n) to disk
// now, so the fsync that follows waits only for the pages written last. It
// is a hint: a failure here shows at that fsync.
func startWriteback(f *os.File, off, n int64) {
	_ = syscall.SyncFileRange(int(f.Fd()), off, n, syncFileRangeWrite)
}
