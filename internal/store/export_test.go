package store

// DirSyncs reports how many times Close synced the store directory.
func (s *Store) DirSyncs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dirSyncs
}
