package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestAppGoldenLines pins the simulated time and traffic smpirun prints for
// its message-passing apps on griffon at -np 16 -chunk 64KiB (pingpong
// always runs on two ranks). The scatter and alltoall apps share their
// per-rank bodies with the campaign grid's ops, so these lines also guard
// that sharing.
func TestAppGoldenLines(t *testing.T) {
	for _, tc := range []struct {
		app  string
		want []string
	}{
		{"scatter", []string{
			"simulated time     : 14.8335ms",
			"messages / bytes   : 79 / 2MiB",
		}},
		{"alltoall", []string{
			"simulated time     : 15.4489ms",
			"messages / bytes   : 304 / 15MiB",
		}},
		{"pingpong", []string{
			"simulated time     : 1.44822ms",
			"messages / bytes   : 2 / 128KiB",
		}},
		{"ring", []string{
			"simulated time     : 11.5858ms",
			"messages / bytes   : 16 / 1MiB",
		}},
	} {
		t.Run(tc.app, func(t *testing.T) {
			out := captureStdout(t, func() error {
				return run(tc.app, 16, "griffon", "surf", "piecewise", false, "64KiB", "WH", "S", 1, false,
					"", "", 0, "", "", false, "", "1ms", "", 0)
			})
			var got []string
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "simulated time") || strings.HasPrefix(line, "messages / bytes") {
					got = append(got, line)
				}
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("-app %s printed\n%s\nwant\n%s", tc.app, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}

// TestUnknownApp checks that an unknown -app is refused with the list of
// valid apps.
func TestUnknownApp(t *testing.T) {
	err := run("gather", 4, "griffon", "surf", "piecewise", false, "64KiB", "WH", "S", 1, false,
		"", "", 0, "", "", false, "", "1ms", "", 0)
	if err == nil || !strings.Contains(err.Error(), "ring") || !strings.Contains(err.Error(), "alltoall") {
		t.Fatalf("err = %v, want the valid apps listed", err)
	}
}

// captureStdout returns what fn prints to os.Stdout.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.Bytes()
	}()
	runErr := fn()
	os.Stdout = stdout
	w.Close()
	out := <-done
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}
