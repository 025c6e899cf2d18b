package dist

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

// A Worker is one live worker process (or in-process equivalent)
// attached to a slot, speaking the long-lived stdio protocol: requests
// go down In, record/control lines come back on Out.
type Worker struct {
	In  io.WriteCloser
	Out io.ReadCloser
	// Kill hard-kills the worker: Out reaches EOF (or an error)
	// promptly, unblocking any pending read. It must be idempotent and
	// safe to call concurrently with reads and with Wait — the
	// coordinator uses it for per-attempt deadlines, work stealing, and
	// run cancellation.
	Kill func()
	// Wait reaps the worker after Kill or after In is closed; call it
	// exactly once.
	Wait func() error
}

// A Spawner launches long-lived workers, one per pool slot. Workers
// serve many shard requests over their lifetime; the coordinator spawns
// lazily, keeps healthy workers across requests, and respawns after a
// kill or failure. Implementations: ExecSpawner for real processes, and
// the in-process pipe spawners the fault tests and the serve layer use.
type Spawner interface {
	Spawn(ctx context.Context, slot int) (*Worker, error)
}

// ExecSpawner spawns workers as subprocesses. Argv maps a slot index to
// the command line, so one spawner covers both local pools (every slot
// runs `<self> work`) and remote templates (slot-specific ssh targets).
type ExecSpawner struct {
	Argv   func(slot int) []string
	Stderr io.Writer // worker stderr passthrough; nil discards
}

func (s *ExecSpawner) Spawn(ctx context.Context, slot int) (*Worker, error) {
	argv := s.Argv(slot)
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Stderr = s.Stderr
	// Each worker leads its own process group, and a kill takes the
	// whole group: a template's /bin/sh may have forked the real worker,
	// which would otherwise keep Out open after the shell dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	kill := func() error {
		if err := syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL); err != syscall.ESRCH {
			return err
		}
		return os.ErrProcessDone
	}
	cmd.Cancel = kill
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &Worker{
		In:  stdin,
		Out: stdout,
		// A group that is already gone is not an error here.
		Kill: func() { _ = kill() },
		Wait: cmd.Wait,
	}, nil
}

// SelfSpawner returns an ExecSpawner that runs this binary's `work`
// subcommand — the local worker pool `meshopt coord -workers <n>` uses.
func SelfSpawner(stderr io.Writer) (*ExecSpawner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("dist: locating own binary: %w", err)
	}
	return &ExecSpawner{
		Argv:   func(int) []string { return []string{exe, "work"} },
		Stderr: stderr,
	}, nil
}

// TemplateSpawner returns an ExecSpawner running a shell command
// template per slot — `{slot}` expands to the slot index, so templates
// like "ssh mesh{slot} meshopt work" fan out across hosts. The command
// must speak the stdio worker protocol (i.e. end in `meshopt work`).
func TemplateSpawner(template string, stderr io.Writer) *ExecSpawner {
	return &ExecSpawner{
		Argv: func(slot int) []string {
			cmd := strings.ReplaceAll(template, "{slot}", strconv.Itoa(slot))
			return []string{"/bin/sh", "-c", cmd}
		},
		Stderr: stderr,
	}
}
