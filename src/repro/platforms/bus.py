"""Kafka-like message bus: the communication backbone of the platform (§2.1)
and Fireworks' parameter passer transport (§3.6).

Topics are append-only partitions of records with offsets.  A topic keeps
only its newest :data:`RETENTION_RECORDS` records (Kafka's retention):
offsets keep counting, and reading one that has aged out raises
:class:`BusError`.  The guest-side
``kafkacat -C -b 172.17.0.1:9092 -t topic<fcID> -o -1 -c 1`` of Figure 3
maps to :meth:`consume_latest`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict

from repro.errors import BusError

#: Records a topic keeps.  Every consumer reads the record it needs as soon
#: as it is produced (the invoker its dispatch, a clone its parameters), so
#: older records are dead weight that would grow with every invocation.
RETENTION_RECORDS = 64


@dataclass(frozen=True)
class Record:
    """One message in a topic."""

    topic: str
    offset: int
    value: Any
    timestamp_ms: float


class Topic:
    """An append-only log of records; the newest
    :data:`RETENTION_RECORDS` are kept."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._records: Deque[Record] = deque(maxlen=RETENTION_RECORDS)
        self._next_offset = 0

    def append(self, value: Any, timestamp_ms: float) -> Record:
        """Append a record, assigning the next offset."""
        record = Record(self.name, self._next_offset, value, timestamp_ms)
        self._next_offset += 1
        self._records.append(record)
        return record

    def latest(self) -> Record:
        """The newest record; BusError when empty."""
        if not self._records:
            raise BusError(f"topic {self.name!r} is empty")
        return self._records[-1]

    def at(self, offset: int) -> Record:
        """The record at *offset*; BusError when out of range or aged
        out."""
        first = self._next_offset - len(self._records)
        if not first <= offset < self._next_offset:
            raise BusError(
                f"offset {offset} out of range for topic {self.name!r}")
        return self._records[offset - first]

    def __len__(self) -> int:
        """Records kept (fewer than produced once retention drops some)."""
        return len(self._records)


class MessageBus:
    """The broker: named topics, produce/consume."""

    def __init__(self, auto_create_topics: bool = True) -> None:
        self.auto_create_topics = auto_create_topics
        self._topics: Dict[str, Topic] = {}

    def create_topic(self, name: str) -> Topic:
        """Create a topic; BusError on duplicates."""
        if name in self._topics:
            raise BusError(f"topic {name!r} already exists")
        topic = Topic(name)
        self._topics[name] = topic
        return topic

    def topic(self, name: str) -> Topic:
        """Get (or auto-create) a topic by name."""
        if name not in self._topics:
            if not self.auto_create_topics:
                raise BusError(f"no topic {name!r}")
            return self.create_topic(name)
        return self._topics[name]

    def delete_topic(self, name: str) -> None:
        """Remove a topic and its records; BusError when absent."""
        if name not in self._topics:
            raise BusError(f"no topic {name!r}")
        del self._topics[name]

    def has_topic(self, name: str) -> bool:
        """Whether the topic exists."""
        return name in self._topics

    def produce(self, topic: str, value: Any,
                timestamp_ms: float = 0.0) -> Record:
        """Append *value* to *topic*; returns the record with its offset."""
        return self.topic(topic).append(value, timestamp_ms)

    def consume_latest(self, topic: str) -> Record:
        """``kafkacat -o -1 -c 1``: the newest record of *topic*."""
        if topic not in self._topics:
            raise BusError(f"no topic {topic!r}")
        return self._topics[topic].latest()

    def consume_at(self, topic: str, offset: int) -> Record:
        """Read one record at an explicit offset."""
        if topic not in self._topics:
            raise BusError(f"no topic {topic!r}")
        return self._topics[topic].at(offset)

    def topic_names(self):
        """Names of all topics on the broker."""
        return tuple(self._topics)
