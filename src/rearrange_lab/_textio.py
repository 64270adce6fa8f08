"""File and line handling shared by the CSV formats: UTF-8, ``\\n`` line
endings on write, and blank lines ignored on read."""


def read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def data_lines(text: str) -> list[str]:
    """The non-blank lines of text."""
    return [line for line in text.split("\n") if line.strip()]
