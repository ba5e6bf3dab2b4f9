package tcp

// FreeBufs reports how many buffers the manager's free list holds.
func (m *Manager) FreeBufs() int { return len(m.bufFree) }
