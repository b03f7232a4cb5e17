//go:build unix && !(linux && (amd64 || arm64))

package store

import "syscall"

// The store's three platform helpers, elsewhere on unix: the same calls
// through package syscall, each copying its name or path to a string.

// nextDirent returns the name in the first record of buf, which holds
// ReadDirent's records, and the records after it. The name is nil for "."
// and ".." and for a torn record, which also ends the listing (rest is
// empty).
func nextDirent(buf []byte) (name, rest []byte) {
	n, _, names := syscall.ParseDirent(buf, 1, nil)
	if n == 0 {
		return nil, nil
	}
	if len(names) == 0 {
		return nil, buf[n:]
	}
	return []byte(names[0]), buf[n:]
}

// openat opens the NUL-terminated path.
func openat(path []byte, mode int) (int, error) {
	return syscall.Open(pathString(path), mode, 0)
}

// fstatat lstats the NUL-terminated path into st.
func fstatat(path []byte, st *syscall.Stat_t) error {
	return syscall.Lstat(pathString(path), st)
}
