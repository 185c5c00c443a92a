"""The scripted completion endpoint of tests/mockllm.py, served from its own
process so the probe client's interpreter time is all that the client
process spends.

    python3 perfbench/mock_endpoint.py

Every request sleeps ``workloads.PROBE_DELAY_MS`` and then answers with
``logits_from_prompt``. The endpoint URL is printed as the first line of
standard output; the server stops when standard input closes.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "tests")]

from mockllm import MockLLMServer, logits_from_prompt  # noqa: E402
from workloads import PROBE_DELAY_MS, share_one_cpu  # noqa: E402


def script(body: dict) -> dict:
    time.sleep(PROBE_DELAY_MS / 1000.0)
    return logits_from_prompt(body["prompt"])


def main() -> int:
    share_one_cpu()
    with MockLLMServer(script=script) as server:
        print(server.endpoint, flush=True)
        sys.stdin.read()
    return 0


if __name__ == "__main__":
    sys.exit(main())
