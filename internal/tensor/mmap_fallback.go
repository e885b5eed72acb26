//go:build !((linux || darwin) && (amd64 || arm64))

package tensor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Fallback loader for hosts without a gated mmap path: the data section is
// read into the heap, so the tensor behaves like a regular Dense (Mapped()
// reports false and advice hooks are no-ops). Correct everywhere, out-of-core
// nowhere.

func mapData(f *os.File, dataOffset int64, n int) ([]float64, []byte, error) {
	if _, err := f.Seek(dataOffset, io.SeekStart); err != nil {
		return nil, nil, err
	}
	br := bufio.NewReaderSize(f, 1<<20)
	data := make([]float64, n)
	var buf [8]byte
	for i := range data {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, nil, fmt.Errorf("tensor: read data: %w", err)
		}
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
	return data, nil, nil
}

func unmapFile([]byte) error { return nil }

func adviseSequential([]byte) {}

func adviseWillNeed([]byte) {}
