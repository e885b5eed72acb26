package tensor

// Save writes the tensor to path in the DSNT file format, the one dense
// tensor file format (see mmap.go). Load reads it into the heap, OpenDense
// maps it, and StatDense reads its identity for a by-reference request.
func (d *Dense) Save(path string) error { return WriteDenseFile(path, d) }

// Load reads a DSNT file (written by Save or WriteDenseFile) into a heap
// tensor. OpenDense checks that the file holds everything its header
// promises before anything is allocated, so a hostile header cannot size
// the copy.
func Load(path string) (*Dense, error) {
	m, err := OpenDense(path)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return m.Clone(), nil
}
