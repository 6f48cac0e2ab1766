package main

import (
	"os"
	"sync"
)

// dirSet is the set of scratch directories alive right now. Each run removes
// its own when it returns; a signal handler removes whatever is left.
type dirSet struct {
	mu   sync.Mutex
	dirs map[string]bool
}

func (d *dirSet) add(dir string) {
	d.mu.Lock()
	d.dirs[dir] = true
	d.mu.Unlock()
}

// remove deletes dir from disk and from the set.
func (d *dirSet) remove(dir string) {
	os.RemoveAll(dir)
	d.mu.Lock()
	delete(d.dirs, dir)
	d.mu.Unlock()
}

func (d *dirSet) removeAll() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for dir := range d.dirs {
		os.RemoveAll(dir)
	}
}
