package store

// DirSyncs reports how many times Close synced the store directory.
func (s *Store) DirSyncs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dirSyncs
}

// path is key's content address as a string, for the tests that damage,
// plant or inspect an entry on disk.
func (s *Store) path(key string) string { return pathString(s.appendPath(nil, key)) }
