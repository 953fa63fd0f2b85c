package trace

import (
	"bufio"
	"bytes"
	"io"
)

// liner yields one borrowed line at a time: the returned slice (without
// its terminating '\n') is valid only until the following call. It is
// the replacement for the bufio.Scanner loops the decoders used to
// run: lines of any length are supported (Scanner failed past its
// token limit), and the slice-backed implementation never copies the
// input at all.
type liner interface {
	// next returns the next line, or io.EOF after the last one. A final
	// line without a terminating newline is still returned.
	next() ([]byte, error)
	// consumed returns the number of input bytes handed out so far,
	// including line terminators — the decoders' BytesRead counter.
	consumed() int64
}

// newLiner picks the zero-copy slice implementation when the reader
// exposes its underlying buffer (a *Bytes: mmap'd file or in-memory
// slice) and the growing bufio implementation otherwise.
func newLiner(r io.Reader) liner {
	if b, ok := r.(*Bytes); ok {
		return &sliceLiner{data: b.Data()}
	}
	return &readLiner{br: bufio.NewReaderSize(r, 64*1024)}
}

// sliceLiner serves lines as subslices of one in-memory buffer.
type sliceLiner struct {
	data []byte
	pos  int
}

func (s *sliceLiner) next() ([]byte, error) {
	if s.pos >= len(s.data) {
		return nil, io.EOF
	}
	rest := s.data[s.pos:]
	if i := bytes.IndexByte(rest, '\n'); i >= 0 {
		s.pos += i + 1
		return rest[:i], nil
	}
	s.pos = len(s.data)
	return rest, nil
}

func (s *sliceLiner) consumed() int64 { return int64(s.pos) }

// readLiner serves lines from any io.Reader. Short lines are borrowed
// straight from the bufio buffer (no copy); lines longer than the
// buffer are accumulated into a growing scratch slice, so there is no
// upper bound on line length.
type readLiner struct {
	br   *bufio.Reader
	long []byte // scratch for lines longer than the bufio buffer
	n    int64
}

func (l *readLiner) next() ([]byte, error) {
	line, err := l.br.ReadSlice('\n')
	if err == nil {
		l.n += int64(len(line))
		return line[:len(line)-1], nil
	}
	if err == io.EOF {
		if len(line) == 0 {
			return nil, io.EOF
		}
		l.n += int64(len(line))
		return line, nil
	}
	if err != bufio.ErrBufferFull {
		return nil, err
	}
	// Long line: accumulate chunks into the scratch buffer.
	l.long = append(l.long[:0], line...)
	for {
		line, err = l.br.ReadSlice('\n')
		l.long = append(l.long, line...)
		switch err {
		case nil:
			l.n += int64(len(l.long))
			return l.long[:len(l.long)-1], nil
		case bufio.ErrBufferFull:
			// keep accumulating
		case io.EOF:
			l.n += int64(len(l.long))
			return l.long, nil
		default:
			return nil, err
		}
	}
}

func (l *readLiner) consumed() int64 { return l.n }
