#!/usr/bin/env bash
# Prints the main-source line counts tracked in ROADMAP.md: raw lines, then
# lines that are neither blank nor comment-only (a trimmed line starting with
# `//`, `/*` or `*`), over src/main/**/*.scala.
# Usage: scripts/main-loc.sh [repo-root]   (default: the repo this script is in)
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
if [ $# -gt 1 ] || [ ! -d "$root/src/main" ]; then
  echo "usage: $0 [repo-root]   (a root with src/main)" >&2
  exit 2
fi
src() { find "$root/src/main" -name '*.scala' -exec cat {} +; }
echo "raw $(src | wc -l)"
echo "code $(src | grep -cvE '^[[:space:]]*$|^[[:space:]]*(//|/\*|\*)')"
