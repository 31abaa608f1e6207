package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"tilevm/internal/guest"
)

// nativeTimeout bounds one native guest; every guest the benchmark
// runs exits in milliseconds on the host CPU.
const nativeTimeout = 20 * time.Second

// nativeExit writes img as a static i386 ELF into dir and runs it on
// the host CPU. The host CPU is the reference the simulator's results
// are checked against: unlike the interpreter and the P3 model, it
// shares no decoder with the translator.
func nativeExit(img *guest.Image, dir, name string) (int32, error) {
	path := filepath.Join(dir, name)
	if err := guest.SaveELF(img, path); err != nil {
		return 0, fmt.Errorf("write %s: %w", path, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), nativeTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, path)
	cmd.Env = []string{}
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, nil
	case errors.As(err, &ee) && ee.Exited():
		return int32(ee.ExitCode()), nil
	default:
		return 0, fmt.Errorf("native run of %s: %w", name, err)
	}
}

// nativeRefs runs each named image natively once and returns its exit
// code by name.
func nativeRefs(imgs map[string]*guest.Image, dir string) (map[string]int32, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := make(map[string]int32, len(imgs))
	for name, img := range imgs {
		code, err := nativeExit(img, dir, name)
		if err != nil {
			return nil, err
		}
		out[name] = code
	}
	return out, nil
}
