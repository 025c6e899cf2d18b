package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// NewLogger builds a leveled slog.Logger writing to w in the given
// format ("text" or "json"). A nil writer yields a discard logger.
func NewLogger(w io.Writer, level slog.Level, format string) *slog.Logger {
	if w == nil || w == io.Discard {
		return Discard()
	}
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts))
	default:
		return slog.New(slog.NewTextHandler(w, opts))
	}
}

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

// ParseFormat validates a -log-format flag value.
func ParseFormat(s string) (string, error) {
	switch strings.ToLower(s) {
	case "text", "":
		return "text", nil
	case "json":
		return "json", nil
	}
	return "", fmt.Errorf("unknown log format %q (want text|json)", s)
}

// Discard returns a logger that drops every record.
func Discard() *slog.Logger { return slog.New(slog.DiscardHandler) }
