//go:build linux && (amd64 || arm64)

package store

import (
	"bytes"
	"encoding/binary"
	"syscall"
	"unsafe"
)

// The store's three platform helpers, on linux: each works on bytes the
// caller holds, a path NUL-terminated, so a reopen and a hit build no
// string.

// The *at(2) arguments package syscall does not export on linux.
const (
	atFDCWD           = ^uintptr(100 - 1) // AT_FDCWD, -100 as a register holds it
	atSymlinkNofollow = 0x100             // AT_SYMLINK_NOFOLLOW
)

// nextDirent returns the name in the first record of buf, which holds
// getdents64 records (linux_dirent64: inode, offset, record length, type,
// NUL-terminated name), and the records after it. The name aliases buf; it
// is nil for ".", "..", a record without an inode and a short or torn
// record, which also ends the listing (rest is empty).
func nextDirent(buf []byte) (name, rest []byte) {
	const nameOff = 8 + 8 + 2 + 1
	if len(buf) < nameOff {
		return nil, nil
	}
	reclen := int(binary.NativeEndian.Uint16(buf[16:]))
	if reclen < nameOff || reclen > len(buf) {
		return nil, nil
	}
	name, rest = buf[nameOff:reclen], buf[reclen:]
	if i := bytes.IndexByte(name, 0); i >= 0 {
		name = name[:i]
	}
	if binary.NativeEndian.Uint64(buf) == 0 || string(name) == "." || string(name) == ".." {
		return nil, rest
	}
	return name, rest
}

// openat opens the NUL-terminated path with openat(AT_FDCWD, …).
func openat(path []byte, mode int) (int, error) {
	fd, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, atFDCWD, uintptr(unsafe.Pointer(&path[0])), uintptr(mode), 0, 0, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(fd), nil
}

// fstatat lstats the NUL-terminated path into st with fstatat(AT_FDCWD, …,
// AT_SYMLINK_NOFOLLOW).
func fstatat(path []byte, st *syscall.Stat_t) error {
	_, _, errno := syscall.Syscall6(sysFstatat, atFDCWD, uintptr(unsafe.Pointer(&path[0])), uintptr(unsafe.Pointer(st)), atSymlinkNofollow, 0, 0)
	if errno != 0 {
		return errno
	}
	return nil
}
