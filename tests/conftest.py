import json
import signal

import pytest

from biotriplets import endpoint
from biotriplets.mockserver import MockScript, MockServer

# 30-term thesaurus used by the CLI / end-to-end tests. Types follow the
# relation mapping: manifestation <- Sign, Symptom, or Finding;
# diagnosis <- Diagnostic/Laboratory Procedure; treatment <- Therapeutic
# or Preventive Procedure / Chemical or Drug.
THESAURUS_ROWS = [
    ("fever", "C0001", "Sign, Symptom, or Finding"),
    ("headache", "C0002", "Sign, Symptom, or Finding"),
    ("nausea", "C0003", "Sign, Symptom, or Finding"),
    ("vomiting", "C0004", "Sign, Symptom, or Finding"),
    ("diarrhea", "C0005", "Sign, Symptom, or Finding"),
    ("abdominal pain", "C0006", "Sign, Symptom, or Finding"),
    ("chest pain", "C0007", "Sign, Symptom, or Finding"),
    ("fatigue", "C0008", "Sign, Symptom, or Finding"),
    ("swollen lymph nodes", "C0009", "Sign, Symptom, or Finding"),
    ("cough", "C0010", "Sign, Symptom, or Finding"),
    ("complete blood count", "C0101", "Laboratory Procedure"),
    ("blood culture", "C0102", "Laboratory Procedure"),
    ("urinalysis", "C0103", "Laboratory Procedure"),
    ("chest radiography", "C0104", "Diagnostic Procedure"),
    ("lumbar puncture", "C0105", "Diagnostic Procedure"),
    ("computed tomography", "C0106", "Diagnostic Procedure"),
    ("blood smear", "C0107", "Laboratory Procedure"),
    ("stool culture", "C0108", "Laboratory Procedure"),
    ("kidney biopsy", "C0109", "Diagnostic Procedure"),
    ("colonoscopy", "C0110", "Diagnostic Procedure"),
    ("streptomycin", "C0201", "Chemical or Drug"),
    ("doxycycline", "C0202", "Chemical or Drug"),
    ("gentamicin", "C0203", "Chemical or Drug"),
    ("ciprofloxacin", "C0204", "Chemical or Drug"),
    ("chloramphenicol", "C0205", "Chemical or Drug"),
    ("supportive care", "C0206", "Therapeutic or Preventive Procedure"),
    ("dialysis", "C0207", "Therapeutic or Preventive Procedure"),
    ("plasma exchange", "C0208", "Therapeutic or Preventive Procedure"),
    ("blood transfusion", "C0209", "Therapeutic or Preventive Procedure"),
    ("antibiotic therapy", "C0210", "Therapeutic or Preventive Procedure"),
]

# Five small article fixtures in the shape the preprocessor expects.
HTML_PAGES = {
    "plague.html": """
<html><head><title>Plague | ref</title></head><body>
<h1>Plague</h1>
<h2>Presentation</h2>
<p>Patients develop fever, headache, and swollen lymph nodes.</p>
<h2>Workup</h2>
<p>Useful studies include blood culture and chest radiography.</p>
<h2>Treatment</h2>
<ul><li>streptomycin</li><li>doxycycline</li></ul>
</body></html>
""",
    "hus.html": """
<html><body>
<h1>Hemolytic-uremic syndrome</h1>
<h2>Exams and Tests</h2>
<p>Tests may include:</p>
<ul>
<li>Complete blood count (CBC)</li>
<li>Blood smear review</li>
<li>Stool culture</li>
<li>Kidney biopsy in rare cases</li>
</ul>
<h2>Treatment</h2>
<p>Care may involve dialysis, plasma exchange, and blood transfusion.</p>
</body></html>
""",
    "cdiff.html": """
<html><body>
<h1>Clostridioides difficile Infection</h1>
<h2>Symptoms</h2>
<p>Diarrhea and abdominal pain are common; nausea and vomiting are rare.</p>
<h2>Diagnosis</h2>
<p>Stool culture and colonoscopy can support the diagnosis.</p>
</body></html>
""",
    "meningitis.html": """
<html><body>
<h1>Bacterial Meningitis</h1>
<h2>Presentation</h2>
<p>Fever and headache dominate the picture, often with fatigue.</p>
<h2>Workup</h2>
<p>Lumbar puncture is essential; computed tomography may precede it.</p>
<h2>Treatment</h2>
<p>Empiric antibiotic therapy with ciprofloxacin or chloramphenicol.</p>
</body></html>
""",
    "pneumonia.html": """
<html><body>
<h1>Community-Acquired Pneumonia</h1>
<h2>Presentation</h2>
<p>Cough, fever, and chest pain are typical complaints.</p>
<h2>Workup</h2>
<p>Chest radiography, blood culture, and urinalysis may help.</p>
<h2>Treatment</h2>
<p>Options include doxycycline and gentamicin plus supportive care.</p>
</body></html>
""",
}

# Chat rules for the golden run: drug and procedure questions answer Yes,
# one term answers with prose (malformed), everything else defaults to No.
GOLDEN_CHAT_SCRIPT = {
    "default": {"answer": "No", "reason": "Not supported by the context."},
    "rules": [
        {"contains": "Is streptomycin", "answer": "Yes",
         "reason": "Listed as a first-line drug."},
        {"contains": "Is doxycycline", "answer": "Yes",
         "reason": "Listed as an effective drug."},
        {"contains": "Is complete blood count", "answer": "Yes",
         "reason": "Named among the diagnostic tests."},
        {"contains": "Is lumbar puncture", "answer": "Yes",
         "reason": "Described as essential for workup."},
        {"contains": "Is fever", "answer": "Yes",
         "reason": "Described as a presenting symptom."},
        {"contains": "Is nausea", "raw": "I am not sure about this one."},
    ],
}


def write_thesaurus(path, rows=THESAURUS_ROWS):
    with open(path, "w", encoding="utf-8") as fh:
        for surface, concept, types in rows:
            fh.write(f"{surface}\t{concept}\t{types}\n")
    return path


def write_fixture_site(root):
    """Write HTML pages + manifest under `root`; returns the manifest path."""
    pages = root / "pages"
    pages.mkdir(parents=True, exist_ok=True)
    manifest = root / "manifest.jsonl"
    with open(manifest, "w", encoding="utf-8") as fh:
        for name, html in HTML_PAGES.items():
            path = pages / name
            path.write_text(html, encoding="utf-8")
            fh.write(json.dumps({
                "site_id": "fixture",
                "url": f"https://example.org/{name}",
                "path": str(path),
            }) + "\n")
    return manifest


def write_config(root, server_url, *, paths=""):
    """The run configuration of the fixture site; `paths` adds lines to its
    [paths] table."""
    cfg = root / "config.toml"
    cfg.write_text(f"""
[paths]
thesaurus = "thesaurus.tsv"
manifest = "manifest.jsonl"
workdir = "work"
{paths}

[chat]
base_url = "{server_url}"
model = "mock-chat"
max_retries = 2

[embedding]
base_url = "{server_url}"
model = "mock-embed"
batch_limit = 128

[retrieval]
anchor_min_words = 512
chunk_words = 128
overlap_words = 32
top_k = 10

[sites.fixture]
list_marker_style = "plain"

[pipeline]
workers = 2
""", encoding="utf-8")
    return cfg


@pytest.fixture
def no_backoff(monkeypatch):
    """Retry a reply without Retry-After at once; a test that times the
    backoff sets `endpoint.RETRY_BACKOFF_S` itself."""
    monkeypatch.setattr(endpoint, "RETRY_BACKOFF_S", 0.0)


@pytest.fixture
def sigint_raises():
    """SIGINT raises KeyboardInterrupt in the main thread, also in a suite
    started with SIGINT ignored (a background job of a non-interactive
    shell). A handled signal is reset to its default by exec, so a child
    process started meanwhile gets SIGINT at its default too."""
    old = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, old)


@pytest.fixture
def mock_server():
    servers = []

    def start(script=None, log_path=None, **kw):
        server = MockServer(MockScript(script) if isinstance(script, dict) else script,
                            log_path=log_path, **kw)
        servers.append(server)
        return server.start()

    yield start
    for server in servers:
        server.stop()
