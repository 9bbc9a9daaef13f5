package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"github.com/goetsc/goetsc/internal/bench"
	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/persist"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// fitECTS trains the served algorithm the way etsc-run does: the Fast
// preset's ECTS, lifted by the voting wrapper where the data needs it.
func fitECTS(train *ts.Dataset, seed int64) (core.EarlyClassifier, error) {
	fs := bench.AlgorithmsByName(train.Name, bench.Fast, seed, []string{"ECTS"})
	if len(fs) != 1 {
		return nil, fmt.Errorf("ECTS factory not found")
	}
	algo := core.WrapForDataset(fs[0].New, train)
	if err := algo.Fit(train); err != nil {
		return nil, fmt.Errorf("fit ECTS on %s: %w", train.Name, err)
	}
	return algo, nil
}

func metaOf(d *ts.Dataset) persist.Meta {
	return persist.Meta{Dataset: d.Name, Length: d.MaxLength(), NumVars: d.NumVars(), NumClasses: d.NumClasses()}
}

// roundTrip saves a model to the persist envelope and loads n copies of
// it back, one per serving replica, as etsc-serve does from a file. It
// returns the copies and the mean time of one Load.
func roundTrip(algo core.EarlyClassifier, meta persist.Meta, n int) ([]core.EarlyClassifier, time.Duration, error) {
	var buf bytes.Buffer
	if err := persist.Save(&buf, algo, meta); err != nil {
		return nil, 0, err
	}
	out := make([]core.EarlyClassifier, n)
	t0 := time.Now()
	for i := range out {
		m, _, err := persist.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, 0, err
		}
		out[i] = m
	}
	return out, time.Since(t0) / time.Duration(n), nil
}

// loopback serves a handler on 127.0.0.1 until close.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(ln) // always ErrServerClosed after close
	}()
	return lb, nil
}

// close stops the listener and every connection, and waits for Serve to
// return.
func (lb *loopback) close() {
	_ = lb.srv.Close() // only reports listener close errors, which Serve already saw
	<-lb.done
}

// appendValues encodes [variable][time] values as a JSON array of arrays.
func appendValues(b []byte, rows [][]float64) []byte {
	b = append(b, '[')
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range row {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, ']')
}
